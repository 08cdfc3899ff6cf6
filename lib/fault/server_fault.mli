(** Scripted server-process crash/restart driver.

    Executes a {!Plan.server_fault}: calls [crash] when the trigger
    fires — at an absolute simulation time ([crash_at]) or once the
    server has handled N RPCs ([crash_after_rpcs], reported via
    {!on_handled}) — then, if the spec says so, calls [restart] after
    [downtime]. Entirely deterministic: no RNG, just the event clock
    and the RPC count.

    With {!Plan.no_server_fault} nothing is ever scheduled and
    {!on_handled} is a cheap no-op, so a fault-free run is untouched. *)

type t

val install :
  Sim.Engine.t ->
  plan:Plan.t ->
  crash:(unit -> unit) ->
  restart:(unit -> unit) ->
  t
(** Arm the injector for [plan.server]. A time trigger is scheduled
    immediately; a count trigger waits for {!on_handled} calls. The
    crash fires at most once (whichever trigger comes first). *)

val on_handled : t -> unit -> unit
(** Report one server-handled RPC (hook this into the stack's handled
    callback). Drives the [crash_after_rpcs] trigger. *)

val crashes : t -> int
val restarts : t -> int
