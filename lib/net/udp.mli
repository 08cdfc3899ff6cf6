(** UDP headers: the size and errors of the frame codec ({!Frame}),
    which reads and writes the header, and verifies its pseudo-header
    checksum, in place. *)

val header_size : int
(** 8 bytes. *)

type error =
  | Truncated
  | Bad_length of int
      (** The length field is below 8 or past the IP payload. *)
  | Bad_checksum

val pp_error : Format.formatter -> error -> unit
