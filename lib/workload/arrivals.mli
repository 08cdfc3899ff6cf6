(** Arrival processes: when requests hit the server.

    All generators schedule engine events up front per arrival (lazily,
    one ahead), so memory stays O(1) in the horizon length. *)

val open_loop :
  Sim.Engine.t -> Sim.Rng.t -> rate_per_s:float ->
  until:Sim.Units.time -> (seq:int -> unit) -> unit
(** Poisson arrivals at the given mean rate from now until [until].
    The callback receives the arrival's sequence number. *)

val step_rates :
  Sim.Engine.t -> Sim.Rng.t ->
  steps:(Sim.Units.duration * float) list -> (seq:int -> unit) -> unit
(** Piecewise-constant Poisson rate: [(hold_duration, rate_per_s)]
    segments played in order (load steps for the scaling experiment). *)

val closed_loop :
  Sim.Engine.t -> Sim.Rng.t -> clients:int ->
  think_time:Dist.t -> send:(seq:int -> done_:(unit -> unit) -> unit) ->
  until:Sim.Units.time -> unit
(** [clients] independent clients, each: send → await [done_] → think →
    repeat. The consumer must call [done_] exactly once per request
    (wire it to the recorder's completion observer). *)
