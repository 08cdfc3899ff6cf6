(** The baselines' one request decoder.

    Both baseline stacks call {!decode_into} inside [Dma_nic.consume]'s
    callback, on the descriptor's pooled receive buffer: the header is
    checked and read in place, the destination port looked up once and
    the arguments decoded from the payload where it lies, into a
    record the stack owns. Nothing the record keeps aliases the buffer,
    which can go back to the pool at once. *)

type outcome =
  | Bad_rpc  (** The header does not check. *)
  | No_service  (** No service is bound to the destination port. *)
  | No_method  (** The bound service has no such method. *)
  | Bad_args  (** The arguments do not decode. *)
  | Request

type t = {
  mutable outcome : outcome;
  mutable port : int;  (** The destination port. *)
  mutable payload_len : int;  (** The UDP payload's length. *)
  mutable rpc_id : int;  (** Read unless the outcome is [Bad_rpc]. *)
  mutable service_id : int;  (** As the header names it; the reply echoes it. *)
  mutable ctx : bytes option;  (** The trace context, for the reply header. *)
  mutable src : Net.Frame.endpoint;
  mutable dst : Net.Frame.endpoint;
      (** The request's endpoints, which the reply swaps. *)
  mutable mdef : Rpc.Interface.method_def;
  mutable args : Rpc.Value.t;
  mutable arg_bytes : int;
}
(** A decoded frame. Every field past [payload_len] is the request's
    only when the outcome is [Request]; a decode that stops earlier
    leaves them as they were. *)

val create : unit -> t
(** A cleared record. *)

val decode_into :
  (int, 'sv) Hashtbl.t -> ('sv -> Rpc.Interface.service_def) -> t ->
  bytes -> unit
(** [decode_into by_port service r b] decodes the frame that
    [Net.Frame.check] accepted at byte 0 of [b] into [r]: it checks the
    header, finds the destination port in [by_port] and the method in
    that binding's [service], and decodes the arguments. It allocates
    only what outlives the buffer: the request's two endpoints, its
    argument value (and the decode's [Ok]) and a trace context the
    header carries. Never raises. *)

val clear : t -> unit
(** Point every field that may hold a request's data at a constant, so
    a parked record keeps no argument value or endpoint alive. *)

val counter : outcome -> string
(** The counter a dropped frame is named by: [rx_bad_rpc],
    [rx_no_service], [rx_no_method] or [rx_bad_args].
    @raise Invalid_argument on [Request]. *)

val reply : t -> Rpc.Value.t -> Net.Frame.t
(** The response: the request's endpoints swapped by
    {!Net.Frame.reply_to}, its ids and trace context in the RPC header,
    the result encoded straight into it. *)

val open_span :
  Obs.Tracer.t -> track:int -> Sim.Units.time -> Net.Frame.t -> unit
(** With tracing on, open a request's root span at the instant its
    frame reaches the NIC. One branch when tracing is off. *)
