(** Schema-directed wire encoding of {!Value.t}.

    Integers use LEB128 varints with zigzag for sign (protobuf-style);
    floats are 8-byte IEEE 754; strings/blobs/lists are varint length
    followed by contents; tuples are fields in order with no framing.
    Decoding requires the schema, exactly as the NIC-side hardware
    unmarshaler does. *)

val encode : Value.t -> bytes
(** @raise Invalid_argument if called on a value that could not have
    come from any schema (never happens for conforming values). *)

val encode_at : int -> Value.t -> bytes
(** [encode_at room v] is [room] zero bytes followed by [encode v], in
    one buffer: room in front of the encoding for a message header,
    written later in place. [encode v] is [encode_at 0 v]. *)

val encoded_size : Value.t -> int
(** Exact size [Bytes.length (encode v)] without materializing. *)

val write : Net.Buf.writer -> Value.t -> unit
(** Write [encode v] at the writer's position, without the
    intermediate buffer: a message encoder sizes its buffer with
    {!encoded_size} and writes the value straight into it. *)

type error = Truncated | Trailing_bytes of int | Overlong_varint

val decode : Schema.t -> bytes -> (Value.t, error) result
(** Decode a complete buffer; trailing bytes are an error. *)

val decode_sub :
  Schema.t -> bytes -> pos:int -> len:int -> (Value.t, error) result
(** [decode_sub s b ~pos ~len] is [decode s (Bytes.sub b pos len)]
    without the copy: decode the range in place.
    @raise Net.Buf.Out_of_bounds if the range is outside [b]. *)

val pp_error : Format.formatter -> error -> unit

(**/**)

val write_varint : Net.Buf.writer -> int64 -> unit
val read_varint : Net.Buf.reader -> int64
(** Exposed for tests. [read_varint] raises [Net.Buf.Out_of_bounds] on
    truncation and [Decode_error Overlong_varint] on a varint longer
    than 10 bytes. *)

exception Decode_error of error

val write_length : Net.Buf.writer -> int -> unit
(** The length-prefix path, without boxing: for [n >= 0],
    [write_length w n] writes exactly [write_varint w (Int64.of_int n)]. *)

val length_size : int -> int
(** Bytes {!write_length} writes. *)

val read_varint_int : Net.Buf.reader -> int
(** [Int64.to_int (read_varint r)] without boxing, raising exactly what
    [read_varint] raises on every input. *)
