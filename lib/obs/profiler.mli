(** The per-shard PDES profiler.

    Record, per shard of a {!Sim.Shard_engine} run: how many
    conservative windows it executed, how many were idle (zero
    events), the events-per-window and outbox-depth distributions, and
    the lookahead-window utilization. All counters are deterministic
    functions of the simulation (sim-time only, never wall-clock), so
    {!report_lines} is byte-identical run to run.

    Zero-cost when not installed: the engine's hook slot defaults to
    [None] (one load-and-branch per shard-window). Install only from a
    config-gated/armed path — simlint flags unconditional hook
    installation inside [lib/]. *)

type t

val create : shards:int -> t
(** @raise Invalid_argument on a non-positive shard count. *)

val probe : t -> Sim.Shard_engine.probe
(** The raw hook (exposed for tests). *)

val install : t -> Sim.Shard_engine.t -> unit
(** [Sim.Shard_engine.set_profiler] with {!probe}.
    @raise Invalid_argument on a shard-count mismatch. *)

val shards : t -> int

val utilization_pct : t -> int -> int
(** Percent of the shard's windows with at least one event; the
    complement is its idle-window share. *)

val report_lines : t -> string list
(** One deterministic line per shard, in shard order: window/idle
    counts, utilization, events-per-window and outbox-depth summary
    quantiles. *)

val merge_into_metrics : t -> Metrics.t -> unit
(** Aggregate into a registry in fixed (shard, name) order: scalar
    counters ([shardNN_windows], [shardNN_idle_windows], ...) and
    histograms ([shardNN_events_per_window], [shardNN_outbox_depth])
    merged via {!Sim.Histogram.merge_into}. *)
