(** Conservative parallel discrete-event simulation, stepped in one
    domain.

    Partitions a simulation into fixed shards — one {!Engine} per
    simulated host or isolated pipeline stage — and runs them in
    conservative windows of width [lookahead] (the inter-shard wire
    latency). Shards share no simulation state; the only inter-shard
    channel is {!post}, whose delivery time must be at least one
    lookahead past the sender's clock. That contract makes every window
    safe to run without rollback, and makes each window advance the
    global clock floor by at least one lookahead.

    {b Determinism contract}: cross-shard messages are merged between
    windows in [(delivery time, source shard, posting order)] order, so
    destination scheduling — including FIFO tie-break seqs — is a pure
    function of the simulation. A one-shard instance is byte-identical
    to a plain [Engine.run].

    Sanitizers attach per shard: each shard's engine keeps its own
    {!Sanitize.Engine_watch} monotonicity monitor and event-heap
    validation. *)

type t

val create : lookahead:Units.duration -> Engine.t array -> t
(** Wrap the given per-shard engines. [lookahead] is the conservative
    window width — the minimum inter-shard latency the simulation
    guarantees.

    @raise Invalid_argument on an empty shard array or a non-positive
    lookahead. *)

val create_matrix : latency:Units.duration array array -> Engine.t array -> t
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

val lookahead : t -> Units.duration
(** The conservative window width: the [create] lookahead, or the
    minimum entry of the [create_matrix] latency matrix. *)

val post :
  t -> src:int -> dst:int -> at:Units.time -> (unit -> unit) -> unit
(** Send a closure from shard [src] to run on shard [dst] at absolute
    time [at]. Call only from [src]'s own events, or from the
    before {!run}. Delivery happens at the end of the current window;
    ordering across all posts is deterministic.

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

val windows_run : t -> int
(** Conservative windows executed so far (events per window is the
    work each window-boundary merge is spread over). *)

val messages_merged : t -> int
(** Cross-shard messages delivered between windows so far. *)

type probe =
  shard:int -> window_end:Units.time -> events:int -> posted:int -> unit
(** Per-(shard, window) profiler hook: after a shard finishes a
    window, the hook observes how many events it ran ([events]) and
    how many cross-shard messages it posted ([posted]) in that window,
    plus the window's end time. Every argument is a deterministic
    function of the simulation — never of wall-clock — so profiler
    output is byte-identical run to run. *)

val set_profiler : t -> probe option -> unit
(** Install (or clear) the profiler hook. [None] — the default — costs
    one load-and-branch per shard-window. [Obs.Profiler] is the
    intended callee. Install only from a [Config]-gated (or otherwise
    explicitly armed) path, never unconditionally; simlint enforces
    this within [lib/]. *)

val set_wire_fault :
  t -> (src:int -> dst:int -> at:Units.time -> bool) option -> unit
(** Install (or clear) the wire-fault seam: every {!post} consults the
    predicate — after the lookahead contract is enforced — and a [true]
    answer swallows the message before it reaches the outbox, modelling
    a cut inter-shard wire (a flapping link, an asymmetric partition).
    [None] — the default — costs one load-and-branch per post.

    The predicate should be a pure function of [(src, dst, at)] — a
    {!Fault.Plan} schedule — so a cut is a property of the plan, not of
    posting history ([Fault.Rack_chaos] is the intended installer).
    Install only from a fault-plan-driven seam; simlint's [fault-seam]
    rule flags anything else within [lib/]. *)
