(** End-system latency bookkeeping.

    Stamp a request when it enters the server NIC; when the matching
    response frame leaves, the elapsed simulated time — exactly the
    paper's "end-system latency" (cycles consumed turning a packet into
    a completed invocation) — lands in a histogram. Connect {!egress}
    as the stack's egress callback. *)

type t

val create : Sim.Engine.t -> t

val stamp : t -> rpc_id:int -> unit
(** Stamp a request's NIC-arrival time. *)

val note_sent : t -> rpc_id:int64 -> unit
(** {!stamp} of an id given as the wire's [int64], converted once.
    @raise Invalid_argument if the id lies outside [[0, 2^62)]. *)

val egress : t -> Net.Frame.t -> unit
(** Parse an outgoing frame; if it is an RPC response to a stamped
    request, record its latency. Unmatched or duplicate responses are
    counted, not fatal. *)

val latencies : t -> Sim.Histogram.t
val sent : t -> int
val completed : t -> int
val unmatched : t -> int
val outstanding : t -> int

val on_complete : t -> (rpc_id:int64 -> latency:Sim.Units.duration -> unit)
  -> unit
(** Optional extra observer for time-series experiments. It gets the
    id as an [int64], boxed once per completion. *)
