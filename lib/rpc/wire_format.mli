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
  rpc_id : int64;
  service_id : int;
  method_id : int;
  ctx : bytes option;
}
(** A message without its body, as {!peek} reads it. Declared before
    {!t}, so an unannotated [m.rpc_id] still names {!t}'s field. *)

type t = {
  rpc_id : int64;  (** Matches a response to its request. *)
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

val is_request : t -> bool
(** The message's kind is [Request] (typed stand-in for a polymorphic
    kind compare). *)

val retriable_error : int -> bool
(** Whether an [Error_reply] code is a transport-level NACK the client
    should treat as retriable ({!err_shed}, {!err_dead}) rather than a
    terminal application error. *)

val encode : t -> bytes

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_kind of int

val decode : bytes -> (t, error) result

val peek : bytes -> (header, error) result
(** Parse the header (and trace context) alone, without copying the
    body: [decode] is [peek] plus the body, so the two answer the same
    error on every input and agree on every header field. *)

val body_offset : header -> int
(** Where the body starts in the bytes {!peek} read: the body is the
    rest of the buffer from there. With {!Codec.decode_sub} this
    decodes the body in place, as [decode] then [Codec.decode] would. *)

val request :
  ?ctx:bytes -> rpc_id:int64 -> service_id:int -> method_id:int -> Value.t -> t
(** Build a request carrying the encoded value. *)

val response : of_:t -> Value.t -> t
(** Build the response to a request, preserving ids and the trace
    context. *)

val with_ctx : t -> bytes option -> t
(** The same message with its trace context replaced. *)

val pp : Format.formatter -> t -> unit
val pp_error : Format.formatter -> error -> unit
