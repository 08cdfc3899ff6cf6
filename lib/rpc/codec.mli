(** Schema-directed wire encoding of {!Value.t}.

    Integers use LEB128 varints with zigzag for sign (protobuf-style);
    floats are 8-byte IEEE 754; strings/blobs/lists are varint length
    followed by contents; tuples are fields in order with no framing.
    Decoding requires the schema, exactly as the NIC-side hardware
    unmarshaler does. Both directions read and write the buffer at
    integer offsets; neither allocates a cursor. *)

val encode : Value.t -> bytes
(** [encode v] is [encode_at 0 v]. *)

val encode_at : int -> Value.t -> bytes
(** [encode_at room v] is [room] zero bytes followed by the encoding of
    [v], in one buffer: room in front of the encoding for a message
    header, written later in place. The buffer is the only allocation.
    @raise Invalid_argument on a negative [room]. *)

val encoded_size : Value.t -> int
(** Exact size [Bytes.length (encode v)] without materializing. *)

val length_size : int -> int
(** Bytes the varint length prefix of a [n >= 0] takes. *)

type error = Truncated | Trailing_bytes of int | Overlong_varint

val decode : Schema.t -> bytes -> (Value.t, error) result
(** Decode a complete buffer; trailing bytes are an error. *)

val decode_sub :
  Schema.t -> bytes -> pos:int -> len:int -> (Value.t, error) result
(** [decode_sub s b ~pos ~len] is [decode s (Bytes.sub b pos len)]
    without the copy: decode the range in place. The encoding is
    validated before anything is built, so a malformed one allocates
    nothing but its error. Errors are reported in reading order: a
    varint longer than 10 bytes is [Overlong_varint]; running past the
    range, a length that decodes negative and a list longer than 2{^24}
    elements are [Truncated]; bytes left after the value are
    [Trailing_bytes].
    @raise Invalid_argument if the range is outside [b]. *)

val pp_error : Format.formatter -> error -> unit
