(** The RPC-over-UDP wire header.

    Every UDP payload in the simulation is one RPC message:
    a 20-byte header (magic, version, kind, service, method, id, body
    length) followed by the {!Codec}-encoded body. *)

type kind =
  | Request
  | Response
  | Error_reply of int  (** Carries an application error code. *)

type header = {
  kind : kind;
  rpc_id : int;
  service_id : int;
  method_id : int;
  ctx : bytes option;
}
(** A message without its body, as {!peek} reads it. Declared before
    {!t}, so an unannotated [m.rpc_id] still names {!t}'s field. *)

type t = {
  rpc_id : int;
      (** Matches a response to its request. A u64 on the wire, but
          every id a frame may carry lies in [[0, 2^62)], so in memory
          it is an immediate [int] ({!check} rejects any other). *)
  service_id : int;
  method_id : int;
  kind : kind;
  ctx : bytes option;
      (** Optional trace-context extension: exactly {!ctx_size} opaque
          bytes (see [Obs.Context]) carried between the header and the
          body, flagged on the kind-tag byte. [None] encodes
          byte-identically to the pre-extension format. *)
  body : bytes;  (** {!Codec}-encoded arguments or results. *)
}

val header_size : int

val ctx_size : int
(** Size of the trace-context extension when present (16 bytes). *)

val err_shed : int
(** [Error_reply] code: the NIC shed the request under overload
    (admission control). The server never saw it; retry after backoff. *)

val err_dead : int
(** [Error_reply] code: the target process was dead (crashed) when the
    request arrived or while it held the request. Retriable — the
    process may be restarted. *)

val retriable_error : int -> bool
(** Whether an [Error_reply] code is a transport-level NACK the client
    should treat as retriable ({!err_shed}, {!err_dead}) rather than a
    terminal application error. *)

val header_room : bytes option -> int
(** Bytes in front of a message's body: {!header_size}, plus
    {!ctx_size} with a trace context.
    @raise Invalid_argument if the context is not {!ctx_size} bytes. *)

val write_header_into :
  kind:kind -> ?ctx:bytes -> rpc_id:int -> service_id:int -> method_id:int ->
  bytes -> unit
(** Write the header of those fields (and the context) over the first
    {!header_room} bytes of a buffer whose body already follows them, as
    {!encode_body} would lay them out. Allocates nothing.
    @raise Invalid_argument if the buffer is shorter than the room, if
    the context is not {!ctx_size} bytes, on a negative rpc id, or on a method id or error
    code outside u16 or a service id outside u32, with the messages a
    cursor writer's [write_u16] and [write_u32] raised. *)

val encode : t -> bytes
(** {!encode_body} of the message's fields. *)

val encode_body :
  kind:kind -> ?ctx:bytes -> rpc_id:int -> service_id:int -> method_id:int ->
  bytes -> bytes
(** The message of those fields whose body is the given bytes, written
    without building a {!t}. *)

val encode_value :
  kind:kind -> ?ctx:bytes -> rpc_id:int -> service_id:int -> method_id:int ->
  Value.t -> bytes
(** [encode] of the message of that kind whose body is the value's
    {!Codec} encoding, with the value written straight into the message
    buffer ({!Codec.encode_at} past the {!header_room}): one buffer, no
    intermediate body. Shares {!encode}'s header writer. The body is
    {!Codec.encoded_size} bytes. *)

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_kind of int
  | Bad_rpc_id  (** The id's top two bits are not both clear. *)

(** {1 Reading in place}

    The header is read where it lies: {!check} validates a buffer and
    the field readers read one field each, allocating nothing.
    {!peek} and {!decode} are defined over these readers, so there is
    one definition of the layout. Every reader is total: on a buffer
    {!check} rejects it answers some value but never raises. *)

val check : bytes -> (unit, error) result
(** [Ok ()] exactly when {!peek} (and {!decode}) succeed, else their
    error. *)

val rpc_id : bytes -> int
val service_id : bytes -> int
val method_id : bytes -> int

val rpc_id_of_int64 : int64 -> int
(** A wire id given as an [int64], in memory.
    @raise Invalid_argument if it lies outside [[0, 2^62)], where
    {!check} would reject it. *)

val kind : bytes -> kind
(** Allocates only for an [Error_reply]. *)

val is_request : bytes -> bool
(** The kind is [Request]. *)

val ctx : bytes -> bytes option
(** A copy of the trace context, when the header carries one. *)

val body_offset : bytes -> int
(** Where the body starts: the body is the rest of the buffer from
    there. With {!Codec.decode_sub} this decodes the body in place, as
    [decode] then [Codec.decode] would. *)

(** {2 At an offset}

    The same readers over a message lying at [b[off, off+len)] inside
    a larger buffer, such as a frame's payload slice in a pooled
    receive buffer. Each answers what its whole-buffer form answers on
    [Bytes.sub b off len], reads no byte outside the range and never
    raises; the whole-buffer forms are these at [~off:0 ~len:(Bytes.length b)].
    The range must lie within [b]. *)

val check_sub : bytes -> off:int -> len:int -> (unit, error) result
val rpc_id_sub : bytes -> off:int -> len:int -> int
val service_id_sub : bytes -> off:int -> len:int -> int
val method_id_sub : bytes -> off:int -> len:int -> int
val ctx_sub : bytes -> off:int -> len:int -> bytes option

val body_offset_sub : bytes -> off:int -> len:int -> int
(** Relative to [off]: the body is [b[off + body_offset_sub, off + len)]. *)

val peek : bytes -> (header, error) result
(** {!check}, then the readers into a header: [decode] without the
    body, so the two answer the same error on every input and agree on
    every header field. *)

val decode : bytes -> (t, error) result
(** {!peek} plus a copy of the body. *)

val request :
  ?ctx:bytes -> rpc_id:int -> service_id:int -> method_id:int -> Value.t -> t
(** Build a request carrying the encoded value. *)

val response : of_:t -> Value.t -> t
(** Build the response to a request, preserving ids and the trace
    context. *)

val with_ctx : t -> bytes option -> t
(** The same message with its trace context replaced. *)

val pp : Format.formatter -> t -> unit
val pp_error : Format.formatter -> error -> unit
