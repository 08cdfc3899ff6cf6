(** The rack's master/worker control plane.

    A master (conventionally co-located with the ToR switch's shard)
    tracks the lifecycle of [hosts] workers: a host {!register}s when
    it comes up, is health-checked every [probe_period], is marked
    {!Dead} when a probe goes unanswered for a full period, and comes
    back by re-registering after a respawn. The embedded load balancer
    ({!pick}) steers each new connection to the next host, round-robin,
    skipping hosts that are dead, unregistered, or shedding — so
    steering reacts to deaths within one probe period and to
    re-registrations immediately.

    Probes are sent through the caller-supplied [probe] callback (in a
    rack, a closure posted across the shard boundary to the host, whose
    reply posts {!ack} back), so the control plane itself is pure
    deterministic bookkeeping on the master's engine. *)

type state = Unregistered | Alive | Dead

type t

val create :
  Sim.Engine.t ->
  hosts:int ->
  probe_period:Sim.Units.duration ->
  probe:(host:int -> unit) ->
  ?on_dead:(host:int -> unit) ->
  ?on_alive:(host:int -> unit) ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** [on_dead]/[on_alive] observe state transitions (e.g. to log a
    failure timeline or tear down steering state). [metrics] is the
    registry the lifecycle counters ([ctl_deaths],
    [ctl_registrations], [ctl_probes_sent], [ctl_acks_received], and
    the derived [ctl_steered_total]) register on — a private one when
    omitted; the named accessors below are views of the same cells.

    @raise Invalid_argument on [hosts <= 0] or a non-positive
    period. *)

val start : t -> unit
(** Begin the periodic probe loop (idempotent). Each round first
    declares dead every [Alive] host whose previous probe was never
    {!ack}ed, then probes every host still [Alive]. A crashed host is
    therefore marked dead at most one probe period after its last
    ack. *)

val register : t -> host:int -> unit
(** A host announces itself (spawn or respawn): state becomes [Alive],
    any pending probe is forgiven, steering resumes immediately, and a
    fresh lease {!epoch} is minted — even when the host was already
    alive (a lease-driven defensive re-register), so acks from its
    previous incarnation turn stale. Ignored while the master is
    crashed (the process is not there to hear it).
    @raise Invalid_argument on a bad host index. *)

val epoch : t -> host:int -> int
(** The host's current lease epoch:
    [(master generation lsl 20) lor registration ordinal]. Probes
    should carry it so acks can echo it back. [0] before the first
    registration. *)

val ack : ?epoch:int -> t -> host:int -> unit
(** A probe reply arrived. Ignored for dead/unregistered hosts (a
    reply already in flight when the host was declared dead does not
    resurrect it — only {!register} does) and while the master is
    crashed. When the reply echoes an [epoch] that is not the host's
    current one — it predates a master restart or a re-register — it
    is rejected and counted ([ctl_epoch_rejections]), never mistaken
    for current health. *)

val crash : t -> unit
(** The master process dies: probing stops, {!register}/{!ack} fall on
    the floor, {!pick} answers [-1]. Idempotent. Arm only from a
    {!Fault.Plan}-driven seam ([Fault.Rack_chaos]); simlint's
    [fault-seam] rule flags anything else inside [lib/]. *)

val restart : t -> unit
(** The master comes back with empty soft state: every host is
    [Unregistered] (workers must re-register — their {!Worker_lease}
    does this within one lease timeout), shedding flags and the
    balancer cursor are cleared, the probe loop re-arms, and the
    generation counter bumps so every pre-crash epoch is stale. Counted
    in [ctl_master_restarts] (registered lazily at first restart).
    Idempotent while up. *)

val up : t -> bool
(** [false] between {!crash} and {!restart}. *)

val master_generation : t -> int
(** Bumped by every {!restart}; starts at 1. *)

val master_restarts : t -> int
val epoch_rejections : t -> int

val set_shedding : t -> host:int -> bool -> unit
(** Mark a host as shedding load (e.g. its NIC admission control is
    rejecting): it stays alive and keeps being probed, but {!pick}
    steers new connections elsewhere. *)

val alive : t -> host:int -> bool

val pick : t -> int
(** The load balancer: the next steerable host, round-robin; [-1]
    when every host is dead, unregistered, or shedding, or the master
    is crashed. *)

val steered : t -> int array
(** Per-host {!pick} counts. *)

val deaths : t -> int
val registrations : t -> int
val probes_sent : t -> int
val acks_received : t -> int

val metrics : t -> Obs.Metrics.t
(** The registry behind the counters above (the one passed to
    {!create}, or the control plane's private one). *)

(** Worker-side lease keeping a host registered across master
    restarts. It runs on the {e host's} engine: every probe the host
    observes renews the lease ({!Worker_lease.saw_probe}); a periodic
    check that finds no probe for a full [timeout] fires
    [re_register] — in a rack, a {!register} posted back across the
    wire — so a worker orphaned by a master crash rejoins the new
    generation within one timeout of the restart, with no master-side
    cooperation. All bookkeeping is host-engine-deterministic. *)
module Worker_lease : sig
  type t

  val create :
    Sim.Engine.t -> timeout:Sim.Units.duration -> re_register:(unit -> unit) ->
    t
  (** @raise Invalid_argument on a non-positive timeout. *)

  val start : t -> unit
  (** Begin the periodic lease check (idempotent); the lease counts as
      renewed at start time. *)

  val stop : t -> unit
  (** Park the check loop (e.g. while the host process itself is
      dead — a dead worker must not re-register). *)

  val saw_probe : t -> unit
  (** Renew the lease: a probe from the master reached this host. *)

  val re_registrations : t -> int
  (** How many times the lease expired and [re_register] fired. *)
end
