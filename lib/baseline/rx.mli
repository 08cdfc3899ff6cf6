(** The baselines' one request decoder.

    Both baseline stacks call {!decode} inside [Dma_nic.consume]'s
    callback, on the descriptor's pooled receive buffer: the header is
    checked and read in place, the destination port looked up once and
    the arguments decoded from the payload slice. Nothing in the result
    aliases the buffer, which can go back to the pool at once. *)

type 'sv request = {
  sv : 'sv;  (** What the destination port is bound to. *)
  rpc_id : int;
  service_id : int;  (** As the header names it; the reply echoes it. *)
  ctx : bytes option;  (** The trace context, for the reply header. *)
  src : Net.Frame.endpoint;
  dst : Net.Frame.endpoint;
      (** The request's endpoints, which the reply swaps. They are the
          view's own records and do not alias the buffer. *)
  mdef : Rpc.Interface.method_def;
  args : Rpc.Value.t;
  arg_bytes : int;
}

type 'sv t =
  | Bad_rpc  (** The header does not check. *)
  | Drop of { rpc_id : int; counter : string }
      (** A well-formed header the stack cannot serve, named by its
          counter: [rx_no_service], [rx_no_method] or [rx_bad_args]. *)
  | Request of 'sv request

val decode :
  (int, 'sv) Hashtbl.t -> ('sv -> Rpc.Interface.service_def) ->
  Net.Frame.view -> 'sv t
(** [decode by_port service v] checks the header, finds [v]'s
    destination port in [by_port] and the method in that binding's
    [service], and decodes the arguments. Never raises. *)

val reply : 'sv request -> Rpc.Value.t -> Net.Frame.t
(** The response: the request's endpoints swapped by
    {!Net.Frame.reply_to}, its ids and trace context in the RPC header,
    the result encoded straight into it. *)

val open_span :
  Obs.Tracer.t -> track:int -> Sim.Units.time -> Net.Frame.t -> unit
(** With tracing on, open a request's root span at the instant its
    frame reaches the NIC. One branch when tracing is off. *)
