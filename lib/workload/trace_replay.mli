(** Replay of recorded arrival traces.

    The paper's motivation leans on production RPC characteristics
    ([23]); this module lets experiments replay such traces instead of
    synthetic arrival processes. The format is a minimal CSV, one
    arrival per line:

    {v
    # time_us, service_idx, bytes
    0.0, 3, 128
    12.5, 0, 64
    v}

    Lines starting with [#] and blank lines are ignored. Times are
    microseconds from trace start, non-decreasing. *)

type event = {
  at : Sim.Units.time;  (** Arrival time (ns from trace start). *)
  service_idx : int;
  bytes : int;
}

val parse : string -> (event list, string) result
(** Parse CSV content. Reports the first malformed line. *)

val to_csv : event list -> string
(** Render events back to the CSV format ([parse] ∘ [to_csv] = id). *)

val load : path:string -> (event list, string) result
(** Read and parse a file. *)

val save : path:string -> event list -> unit

val synthesize :
  Sim.Rng.t -> duration:Sim.Units.duration -> rate_per_s:float ->
  services:int -> ?zipf_s:float -> unit -> event list
(** Generate a trace with Poisson arrivals, optional Zipf service
    popularity, and sizes drawn from {!Rpc_mix.small_rpc_sizes}. *)

val replay :
  Sim.Engine.t -> ?offset:Sim.Units.duration -> event list ->
  (event -> unit) -> unit
(** Schedule the callback at each event's time (plus [offset]).
    @raise Invalid_argument if events are not time-sorted. *)

val stats : event list -> string
(** One-line summary: count, duration, mean rate, distinct services,
    size percentiles. *)
