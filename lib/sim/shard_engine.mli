(** Conservative parallel discrete-event simulation, stepped in one
    domain.

    Partitions a simulation into fixed shards — one {!Engine} per rack
    host, plus the switch's — and runs them in conservative windows of
    width [lookahead] (the shortest inter-shard wire latency). Shards
    share no simulation state; the only inter-shard channel is
    {!post}, whose delivery time must be at least its pair's wire
    latency past the sender's clock. That contract makes every window
    safe to run without rollback, and makes each window advance the
    global clock floor by at least one lookahead. [Cluster.Fabric] is
    the one user.

    {b Determinism contract}: cross-shard messages are merged between
    windows in [(delivery time, source shard, posting order)] order, so
    destination scheduling — including FIFO tie-break seqs — is a pure
    function of the simulation. A one-shard instance is byte-identical
    to a plain [Engine.run].

    Sanitizers attach per shard: each shard's engine keeps its own
    {!Sanitize.Engine_watch} monotonicity monitor and event-heap
    validation. *)

type t

val create : latency:Units.duration array array -> Engine.t array -> t
(** Wrap the given per-shard engines with a per-pair wire-latency
    matrix: [latency.(s).(d)] is the minimum delivery delay of a
    message posted from shard [s] to shard [d] (the [s]→[d] wire
    latency; the diagonal governs self-posts). The conservative window
    width — reported by {!lookahead} — is the matrix minimum: the
    rack's shortest link bounds how far any shard may safely run
    ahead. {!post}, however, validates each message against its own
    pair's latency, so on an asymmetric topology a delivery that
    undercuts its link's latency is rejected even when it clears the
    global minimum.

    @raise Invalid_argument on an empty shard array, a non-square
    matrix, or a non-positive entry. *)

val lookahead : t -> Units.duration
(** The conservative window width: the minimum entry of the latency
    matrix. *)

val post :
  t -> src:int -> dst:int -> at:Units.time -> (unit -> unit) -> bool
(** Send a closure from shard [src] to run on shard [dst] at absolute
    time [at]; [false] when the wire-fault seam ({!set_wire_fault})
    swallowed it, so it will never run. Call only from [src]'s own
    events, or before {!run}. Delivery happens at the end of the
    current window; ordering across all posts is deterministic.

    @raise Invalid_argument if [at] is earlier than [src]'s clock plus
    the [src]→[dst] entry of the latency matrix (the conservative
    contract), or on a bad shard index. *)

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
