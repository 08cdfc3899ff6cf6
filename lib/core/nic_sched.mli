(** NIC-gathered load statistics and core-scaling policy (paper §5.2).

    "[Preemption] can be initiated by the kernel scheduler, or by
    Lauberhorn based on statistics it gathers about the instantaneous
    load on each server process. This approach therefore also supports
    dynamic scaling of the cores used for RPC based on load."

    The NIC keeps, per service, an exponentially weighted arrival rate
    and watches endpoint queue depth. The policy is deliberately
    simple and hysteretic: scale up when the queue persists above the
    high watermark, release a core (let the worker's TRYAGAIN-yield
    take effect) when the rate says one fewer worker still keeps
    utilisation below the low-water target. *)

type t

val create :
  ?hi_watermark:int -> ?shed:bool -> ?shed_hi:int -> ?shed_lo:int -> unit ->
  t
(** The rate averages over 100 µs and a scale-down aims below 70%
    per-worker utilisation. Scale up when more than [hi_watermark]
    (default 4) requests queue.

    [shed] (default [false]) arms admission control: a service whose
    endpoint backlog reaches [shed_hi] (default 16) starts shedding —
    {!decide} answers {!Shed} for every arrival — until the backlog
    drains to [shed_lo] (default 4). The wide hysteresis band prevents
    the gate flapping at a constant arrival rate. With [shed] off the
    decision space is exactly the pre-admission-control one.
    @raise Invalid_argument unless [0 <= shed_lo < shed_hi] (when
    [shed] is on). *)

val on_arrival : t -> service:int -> now:Sim.Units.time -> unit
val on_complete : t -> service:int -> unit

val rate : t -> service:int -> float
(** Estimated arrivals per second. *)

val outstanding : t -> service:int -> int
(** Accepted minus completed. *)

type decision =
  | Steady
  | Add_worker  (** Dispatch an additional worker (scale up). *)
  | Release_worker  (** Let one worker yield its core (scale down). *)
  | Shed
      (** Reject this arrival at the NIC: the service is in overload
          and the request should be NACKed on the wire rather than
          silently queued to a drop. Only produced when the scheduler
          was created with [~shed:true]. *)

val decide :
  t -> service:int -> queue_depth:int -> workers:int ->
  handler_time:Sim.Units.duration -> decision
(** Evaluated per arrival by the stack. Admission control (when armed)
    takes precedence over scaling decisions; the hysteretic shed state
    is updated as a side effect of this call. *)

