(** Domain-sharded conservative parallel discrete-event simulation.

    Partitions a simulation into fixed shards — one {!Engine} per
    simulated host or isolated pipeline stage — and runs them in
    OCaml 5 domains, synchronized by barrier-delimited conservative
    windows of width [lookahead] (the inter-shard wire latency).
    Shards share no simulation state; the only inter-shard channel is
    {!post}, whose delivery time must be at least one lookahead past
    the sender's clock. That contract makes every window safe to run
    without rollback, and makes each window advance the global clock
    floor by at least one lookahead.

    {b Determinism contract}: a run's observable output (every event
    order, every tie-break, every clock reading) is byte-identical for
    any domain count, including the sequential [domains = 1] case.
    Cross-shard messages are merged at barriers in
    [(delivery time, source shard, posting order)] order by the
    coordinator alone, so destination scheduling — including FIFO
    tie-break seqs — never depends on thread interleaving. Exceptions
    are the one non-goal: a failing run fails for every domain count,
    but the wrapping ({!Worker_failed}) differs.

    Sanitizers attach per shard: each shard's engine keeps its own
    {!Sanitize.Engine_watch} monotonicity monitor and event-heap
    validation, touched only by the domain running that shard. *)

type t

exception Worker_failed of int * exn
(** A worker domain died: carries the lowest failing worker index and
    the original exception. The sequential path raises the original
    exception unwrapped. *)

val env_domains : unit -> int
(** Domain count selected by the [LAUBERHORN_SHARDS] environment
    variable; [1] when unset.

    @raise Invalid_argument outside [1..64]. *)

val create : ?domains:int -> lookahead:Units.duration -> Engine.t array -> t
(** Wrap the given per-shard engines. [domains] defaults to
    {!env_domains}, and is capped at the shard count. [lookahead] is
    the conservative window width — the minimum inter-shard latency
    the simulation guarantees.

    @raise Invalid_argument on an empty shard array, a non-positive
    lookahead, or a non-positive domain count. *)

val create_matrix :
  ?domains:int -> latency:Units.duration array array -> Engine.t array -> t
(** Like {!create}, but with a per-pair wire-latency matrix:
    [latency.(s).(d)] is the minimum delivery delay of a message posted
    from shard [s] to shard [d] (the [s]→[d] wire latency; the diagonal
    governs self-posts). The conservative window width — reported by
    {!lookahead} — is the matrix minimum: the rack's shortest link
    bounds how far any shard may safely run ahead. {!post}, however,
    validates each message against its own pair's latency, so on an
    asymmetric topology a delivery that undercuts its link's latency is
    rejected even when it clears the global minimum — with a uniform
    lookahead such a violation would pass silently.

    @raise Invalid_argument on an empty shard array, a non-square
    matrix, or a non-positive entry. *)

val shards : t -> int
val domains : t -> int

val lookahead : t -> Units.duration
(** The conservative window width: the [create] lookahead, or the
    minimum entry of the [create_matrix] latency matrix. *)

val engine : t -> int -> Engine.t
(** The shard's private engine (for scheduling its local events and
    reading its clock). *)

val post :
  t -> src:int -> dst:int -> at:Units.time -> (unit -> unit) -> unit
(** Send a closure from shard [src] to run on shard [dst] at absolute
    time [at]. Call only from [src]'s own events, or from the
    coordinator before {!run}. Delivery happens at the next window
    barrier; ordering across all posts is deterministic.

    @raise Invalid_argument if [at] is earlier than [src]'s clock plus
    the [src]→[dst] lookahead — the uniform one, or the pair's entry in
    the {!create_matrix} latency matrix (the conservative contract) —
    or on a bad shard index. *)

val run : t -> until:Units.time -> unit
(** Run every shard up to and including [until], window by window.
    On return all shard clocks equal [until] (exactly as a plain
    [Engine.run ~until] would leave them) and no event at or before
    [until] remains. Reusable: later calls continue from the current
    state with a later horizon. *)

val next_event_time : t -> Units.time option
(** Earliest pending event across all shards (delivered messages
    only — posts still in flight to a barrier are invisible). *)

val windows_run : t -> int
(** Conservative windows executed so far (parallelism-efficiency
    metric: events per window is the available concurrency). *)

val messages_merged : t -> int
(** Cross-shard messages delivered at barriers so far. *)

type probe =
  shard:int -> window_end:Units.time -> events:int -> posted:int -> unit
(** Per-(shard, window) profiler hook: after a shard finishes a
    window, the hook observes how many events it ran ([events]) and
    how many cross-shard messages it posted ([posted]) in that window,
    plus the window's end time. Every argument is a deterministic
    function of the simulation — never of wall-clock or thread
    scheduling — so profiler output stays byte-identical for any
    domain count. *)

val set_profiler : t -> probe option -> unit
(** Install (or clear) the profiler hook. [None] — the default — costs
    one load-and-branch per shard-window. The hook runs on whichever
    domain owns the shard that window; it must only touch per-shard
    storage (the barrier provides the happens-before edges, exactly as
    for the engines themselves — [Obs.Profiler] is the intended
    callee). Install only from a [Config]-gated (or otherwise
    explicitly armed) path, never unconditionally; simlint enforces
    this within [lib/]. *)

val set_wire_fault :
  t -> (src:int -> dst:int -> at:Units.time -> bool) option -> unit
(** Install (or clear) the wire-fault seam: every {!post} consults the
    predicate — after the lookahead contract is enforced — and a [true]
    answer swallows the message before it reaches the outbox, modelling
    a cut inter-shard wire (a flapping link, an asymmetric partition).
    [None] — the default — costs one load-and-branch per post.

    The predicate runs on the posting domain. To keep runs
    byte-identical across domain counts it must be a pure function of
    [(src, dst, at)] — a {!Fault.Plan} schedule, never shared mutable
    state — and any drop counting must live in per-src storage touched
    only by the posting domain (the same discipline as the outboxes;
    [Fault.Rack_chaos] is the intended installer). Install only from a
    fault-plan-driven seam; simlint's [fault-seam] rule flags anything
    else within [lib/]. *)
