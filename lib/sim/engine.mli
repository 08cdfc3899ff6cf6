(** The discrete-event simulation core.

    An engine owns the simulated clock and an event queue. Components
    schedule closures at absolute or relative times; [run] advances the
    clock from event to event. All state in the simulation is driven by
    these callbacks, so a run is fully deterministic given the same
    schedule order and RNG seeds. *)

type t

type handle
(** A scheduled event, usable for cancellation (e.g. timers that are
    disarmed when the awaited message arrives first). An immediate
    value: holding one allocates nothing. *)

val no_handle : handle
(** Names no event; {!cancel} ignores it. For fields that hold "no
    timer armed". *)

val create : unit -> t
(** A fresh engine with the clock at time 0 and an empty queue. The
    queue is an {!Event_heap}. *)

val scheduler_kind : t -> Scheduler.kind
(** The engine's event queue, always [Heap]. Kept only because
    perfbench's ledger compiles against it (see {!Scheduler}). *)

val now : t -> Units.time
(** Current simulated time. *)

val schedule_at : t -> at:Units.time -> (unit -> unit) -> handle
(** Run a callback at an absolute time.

    @raise Invalid_argument if [at] is in the simulated past. *)

val schedule_after : t -> after:Units.duration -> (unit -> unit) -> handle
(** Run a callback [after] nanoseconds from now.

    @raise Invalid_argument if [after] is negative. *)

val cancel : t -> handle -> unit
(** Disarm a scheduled event; no-op if already fired or cancelled, or
    if the handle is {!no_handle}. *)

val pending : t -> int
(** Number of scheduled events not yet fired or cancelled. *)

val run : ?until:Units.time -> t -> unit
(** Process events in time order until the queue drains, or until the
    first event strictly later than [until] (which stays queued and the
    clock stops at [until]). *)

val step : t -> bool
(** Process exactly one event. Returns [false] if the queue was empty. *)

val events_processed : t -> int
(** Total callbacks fired so far (simulation-effort metric). *)

val set_monitor : t -> (Units.time -> unit) option -> unit
(** Install (or clear) a per-event observer, called with the event's
    timestamp just before its callback runs. With [None] — the
    default — {!step} pays a single branch. Sanitizers use this to
    prove the clock never moves backwards. *)

val validate : t -> (unit, string) result
(** Structural self-check of the event queue ({!Event_heap.validate}). *)
