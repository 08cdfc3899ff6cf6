(** Frame construction for simulated clients. *)

val client_endpoint : ?idx:int -> unit -> Net.Frame.endpoint
(** A synthetic client NIC identity ([idx] varies MAC/IP/port). *)

val default_client : Net.Frame.endpoint
(** [client_endpoint ()], built once: the sender of every request that
    does not name its own. *)

val server_address : Net.Frame.endpoint
(** The default server identity (MAC 02:00:00:00:00:01, IP 10.0.0.1),
    with port 0. Every server without an address of its own is this
    one. *)

val server_endpoint : port:int -> Net.Frame.endpoint
(** {!server_address} on the given UDP service port. *)

val request :
  rpc_id:int -> service_id:int -> method_id:int -> port:int ->
  client:Net.Frame.endpoint -> dst:Net.Frame.endpoint -> Rpc.Value.t ->
  Net.Frame.t
(** A complete request frame from [client] to [dst]'s machine on UDP
    port [port] ([dst]'s own port is not read), carrying the encoded
    arguments. The destination is fixed when the frame is built: a
    sender that steers each transmission picks [dst] first, so no frame
    is re-addressed on its way out.
    @raise Invalid_argument on a negative rpc id. *)

val request_frame :
  rpc_id:int64 -> service_id:int -> method_id:int -> port:int ->
  client:Net.Frame.endpoint -> Rpc.Value.t -> Net.Frame.t
(** {!request} of an id given as the wire's [int64], converted once,
    from [client] to {!server_address}. [client] is required rather
    than optional, so a call boxes no [Some].
    @raise Invalid_argument if the id lies outside [[0, 2^62)]. *)

val inject :
  Recorder.t -> Driver.t -> rpc_id:int -> service_id:int ->
  method_id:int -> port:int -> client:Net.Frame.endpoint -> Rpc.Value.t ->
  unit
(** Stamp the recorder and deliver the frame from [client], addressed to
    {!server_address}, to the driver's ingress. [client] is required
    rather than optional, so a call boxes no [Some]; a sender without an
    identity of its own passes {!default_client}. *)
