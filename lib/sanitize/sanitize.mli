(** Runtime protocol sanitizers.

    A [Sanitize.t] is a session of always-on invariant checking over
    one simulation run: watches attach to the subsystems' observation
    hooks ({!Net.Pool.set_monitor}, {!Sim.Engine.set_monitor},
    {!Coherence.Home_agent.set_sanitizer}, and generic closures for the
    scheduler mirror), record violations with precise diagnostics, and
    run end-of-run checks (leaks, convergence) at {!finish}.

    The layer is strictly opt-in: when no sanitizer is attached every
    hook is [None] and each hot-path crossing pays a single branch —
    zero allocation, zero behaviour change. *)

type violation = {
  checker : string;  (** Which checker fired (["pool"], ["coherence"], …). *)
  detail : string;  (** Human-readable diagnostic. *)
  at : Sim.Units.time;  (** Simulated time of detection. *)
}

exception Violation of violation

type mode =
  | Raise  (** Fail fast: the first violation raises {!Violation}. *)
  | Collect  (** Record violations for inspection (tests). *)

type t

val create : ?mode:mode -> Sim.Engine.t -> t
(** A sanitizer session stamping violations with the engine's clock.
    Default mode is [Raise]. *)

val report : t -> checker:string -> string -> unit
(** Record a violation (raises in [Raise] mode). Checkers use this;
    tests may too, to exercise the plumbing. *)

val violations : t -> violation list
(** Recorded violations, oldest first (empty in [Raise] mode unless
    the exception was caught). *)

val checks_run : t -> int
(** Number of individual checks performed — evidence the sanitizer was
    actually exercising the run, not silently detached. *)

val on_finish : t -> (unit -> unit) -> unit
(** Register an end-of-run check; {!finish} runs them in registration
    order. *)

val finish : t -> unit
(** Run the end-of-run checks (leak, convergence, heap validation).
    Idempotent. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Pool sanitizer}

    Leak, double-release and use-after-release detection over a
    {!Net.Pool.t}. Outstanding buffers are tracked by physical
    identity; released buffers are poisoned with [0xDD] so a read
    through a stale slice is recognisable. *)

module Pool_watch : sig
  type watch

  val attach :
    t -> ?name:string -> ?in_flight:(unit -> int) -> Net.Pool.t -> watch
  (** Install the pool monitor. [in_flight] (default: constantly 0)
      returns how many buffers are legitimately parked outside the
      pool at quiesce — e.g. completed descriptors still sitting in
      NIC rings — so the end-of-run leak check can subtract them. *)

  val outstanding : watch -> int
  (** Buffers currently tracked as acquired-but-not-released. *)

  val assert_live : watch -> Net.Slice.t -> unit
  (** Report a use-after-release if the slice reads as entirely
      poison (length ≥ 8); callers invoke this before trusting a view
      whose backing buffer may have been recycled. *)

  val poison_byte : char
end

(** {1 Event-loop sanitizer}

    Clock monotonicity on every event plus a structural heap check at
    {!finish}. *)

module Engine_watch : sig
  val attach : t -> Sim.Engine.t -> unit
end

(** {1 Coherence sanitizer}

    Home-agent generation discipline: generations only grow, and no
    fill is delivered across a {!Coherence.Home_agent.reset_line}. *)

module Coherence_watch : sig
  val attach : t -> Coherence.Home_agent.t -> unit
end

(** {1 Scheduler-mirror sanitizer}

    The mirror lives above this library, so the watch takes the two
    sides as closures rendering comparable state. *)

module Mirror_watch : sig
  type watch

  val attach :
    t -> ?quiesced:(unit -> bool) -> name:string ->
    truth:(unit -> string) -> view:(unit -> string) -> unit -> watch
  (** At {!finish} — once all push-lag traffic has quiesced — [truth]
      (kernel state) and [view] (NIC mirror state) must render
      identically. [quiesced] (default: constantly true) reports
      whether the lag has in fact drained; the run may legitimately be
      cut off mid-push, in which case the comparison is skipped. *)

  val dispatch : watch -> pid:int -> alive:bool -> unit
  (** Record a dispatch decision: [alive] is the mirror's belief about
      the target pid at the instant of dispatch. A dispatch to a pid
      the NIC already swept is a violation — during the stale window
      the mirror still believes the pid alive, so legitimate
      stale-window dispatches pass. *)
end
