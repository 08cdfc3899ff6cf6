(** Bounded cursor-based reader/writer over [bytes].

    The RPC codec and trace contexts go through this module, so every
    out-of-bounds access and every truncated message surfaces as
    {!exception-Out_of_bounds} rather than silent corruption.
    Multi-byte integers are big-endian (network order). The frame
    codec ({!Frame}) reads and writes its fixed-offset headers
    directly. *)

exception Out_of_bounds of string

type reader
type writer

(** {1 Writing} *)

val writer : int -> writer
(** A writer over a fresh zeroed buffer of the given capacity. *)

val writer_over : bytes -> writer
(** A writer over a caller-owned (e.g. {!Pool}) buffer, starting at
    position 0. Existing contents are NOT cleared: use {!write_zeros}
    for padding instead of relying on a zeroed buffer. *)

val writer_pos : writer -> int
(** Bytes written so far. *)

val write_u8 : writer -> int -> unit
(** @raise Invalid_argument if the value is outside [0, 255]. *)

val write_u16 : writer -> int -> unit
val write_u32 : writer -> int -> unit
val write_u64 : writer -> int64 -> unit
val write_bytes : writer -> bytes -> unit
val write_string : writer -> string -> unit

val write_zeros : writer -> int -> unit
(** Write [n] zero bytes without allocating a scratch buffer. *)

val patch_u16 : writer -> pos:int -> int -> unit
(** Overwrite two bytes at an already-written position (checksum
    back-patching). *)

val contents : writer -> bytes
(** Copy of the bytes written so far. *)

val filled : writer -> bytes
(** The underlying buffer without copying, for exact-capacity writers.
    @raise Out_of_bounds if the writer is not full — that would leak
    uninitialised (or stale) tail bytes. *)

(** {1 Reading} *)

val reader : bytes -> reader

val sub_reader : bytes -> pos:int -> len:int -> reader
val reader_pos : reader -> int

val remaining : reader -> int

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_u64 : reader -> int64
val read_bytes : reader -> len:int -> bytes

val expect_end : reader -> unit
(** @raise Out_of_bounds if unread bytes remain (trailing-garbage
    detection for strict parsers). *)
