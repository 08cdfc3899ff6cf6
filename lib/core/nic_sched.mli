(** NIC-side core scale-up and admission control (paper §5.2).

    "[Preemption] can be initiated by the kernel scheduler, or by
    Lauberhorn based on statistics it gathers about the instantaneous
    load on each server process. This approach therefore also supports
    dynamic scaling of the cores used for RPC based on load."

    The NIC watches each service's endpoint queue depth. It scales up
    when more than 4 requests queue. Scale-down needs no decision here:
    an idle worker's TRYAGAIN-yield gives its core back. *)

type gate
(** One service's admission-control state (hysteretic). *)

val gate : unit -> gate
(** A gate that is not shedding. *)

type decision =
  | Steady
  | Add_worker  (** Dispatch an additional worker (scale up). *)
  | Shed
      (** Reject this arrival at the NIC: the service is in overload
          and the request should be NACKed on the wire rather than
          silently queued to a drop. Only produced when [shed] is on. *)

val decide : gate -> shed:bool -> queue_depth:int -> decision
(** Evaluated per arrival by the stack. [shed] arms admission control,
    which takes precedence over scaling: a service whose backlog
    reaches 16 starts shedding, and the gate stays shut until the
    backlog drains to 4. The gate is updated as a side effect. With
    [shed] off the gate is never touched and {!Shed} never answered. *)
