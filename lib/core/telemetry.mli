(** NIC-side per-service statistics (paper §6: "support for tracing,
    debugging, and statistics presents interesting properties for
    further close integration with the OS").

    Because the NIC sees both the arrival and the response of every
    RPC, it can measure true end-system latency per service with zero
    CPU cost — no application instrumentation, no sampling daemon. The
    stack feeds this module at dispatch and at response collection.
    Fault and recovery events are not counted here: the stack counts
    each once on its {!Obs.Metrics} registry. *)

type path = Fast | Queued | Cold
(** How a request was dispatched: straight into a parked load, queued
    behind a busy worker, or through the kernel (Figure 5). *)

type t

val create : unit -> t

val record :
  t -> service_id:int -> path:path -> latency:Sim.Units.duration ->
  bytes_in:int -> bytes_out:int -> unit

val services : t -> int list
(** Service ids with at least one recorded RPC, sorted. *)

val latency : t -> service_id:int -> Sim.Histogram.t
(** Per-service end-system latency as the NIC saw it.
    @raise Invalid_argument for an unknown service. *)

val path_counts : t -> service_id:int -> int * int * int
(** [(fast, queued, cold)]. *)

val bytes : t -> service_id:int -> int * int
(** [(in, out)] payload bytes. *)

val total_rpcs : t -> int
