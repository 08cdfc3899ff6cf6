(** The unified metrics registry.

    One typed registry per server stack absorbs what used to be
    scattered, string-keyed counter plumbing: NIC drop/overflow
    counts, coherence-fault counters, the stack's kill/NACK/requeue/shed
    counters and pool accounting all register here and are exported through one
    interface (assoc lists for reports, JSON for tooling).

    Four metric kinds:
    - {b counters} — monotonically increasing ints, owned by the
      registry ({!incr}/{!add});
    - {b gauges} — set-to-a-value ints ({!set});
    - {b derived gauges} — read-through callbacks onto state owned
      elsewhere (a NIC's ring-drop tally, a pool's outstanding count),
      sampled at export time;
    - {b histograms} — {!Sim.Histogram} value distributions.

    Registering the same name twice returns the same metric; reusing a
    name with a different kind raises [Invalid_argument]. *)

type t

type counter
type gauge

val create : unit -> t

(** {1 Registration} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val derive : t -> string -> (unit -> int) -> unit
(** Register a derived gauge: [fn] is called at export time. *)

val histogram : t -> string -> Sim.Histogram.t
(** Find-or-create a histogram metric; record into the returned
    histogram directly. *)

(** {1 Updates and reads} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val counter_value : t -> string -> int
(** Value of a registered counter by name; 0 when the name was never
    registered (does not create it). *)

val merge_into : src:t -> dst:t -> unit
(** Deterministic aggregation: add every metric of [src] into [dst],
    iterating [src] in sorted-name order (merge registries in a fixed
    shard order for a rack-wide snapshot that is a pure function of
    the simulation). Counters and gauges add; derived gauges are
    sampled now and add into a plain [dst] gauge of the same name;
    histograms merge via {!Sim.Histogram.merge_into}.

    @raise Invalid_argument when a name is already registered in [dst]
    with an incompatible kind (a derived source needs a gauge slot). *)

(** {1 Export} *)

val to_list : ?keep_zero:bool -> t -> (string * int) list
(** Scalar metrics (counters, gauges, derived gauges — not
    histograms), sorted by name. Zero-valued entries are dropped
    unless [keep_zero] — absent and zero are indistinguishable to
    report code, and dropping keeps fault-free reports free of fault
    counters. *)

val to_json : t -> Json.t
(** Every metric, sorted by name. Scalars export as numbers;
    histograms as [{count, mean, p50, p90, p99, max}]. *)

