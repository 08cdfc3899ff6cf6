(** Deterministic fault plans.

    A plan is pure data: which faults to inject, with what probability,
    on which link, under which seed. The injectors ({!Link}, the DMA
    NIC, the home agent) derive their private RNG streams from the
    plan's seed, so two runs with the same plan and the same workload
    seeds produce identical traces — faults included.

    [none] is the identity plan: every injector guards its RNG draws on
    the relevant probability being positive, so a [none]-configured run
    consumes no random numbers and is bit-identical to a run without
    the fault layer at all. *)

type link = {
  drop : float;  (** per-frame loss probability *)
  duplicate : float;  (** per-frame duplication probability *)
  corrupt : float;  (** per-frame single-byte corruption probability *)
  reorder : float;  (** per-frame probability of an extra random delay *)
  reorder_delay : Sim.Units.duration;
      (** maximum extra delay for reordered (and duplicated) frames *)
  drop_nth : int list;
      (** scripted drops: 1-based ordinals of frames to drop on this
          link, independent of the probabilistic faults *)
}
(** Faults applied to one directed link. *)

val link :
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_delay:Sim.Units.duration ->
  ?drop_nth:int list ->
  unit ->
  link
(** A link fault spec; everything defaults to fault-free.
    @raise Invalid_argument on probabilities outside [0,1], a negative
    delay, or non-positive scripted ordinals. *)

type server_fault = {
  crash_at : Sim.Units.time option;
      (** absolute simulation time of the crash, if time-triggered *)
  crash_after_rpcs : int option;
      (** crash once the server has handled this many RPCs, if
          count-triggered (whichever trigger fires first wins) *)
  downtime : Sim.Units.duration;
      (** how long the process stays dead before a restart *)
  restart : bool;  (** whether the process comes back at all *)
}
(** A scripted server-process crash (and optional restart). Pure data,
    deterministic by construction — no RNG involved. *)

val no_server_fault : server_fault
(** Never crashes. *)

val server_fault :
  ?crash_at:Sim.Units.time ->
  ?crash_after_rpcs:int ->
  ?downtime:Sim.Units.duration ->
  ?restart:bool ->
  unit ->
  server_fault
(** A server crash spec; [downtime] defaults to 2 ms, [restart] to
    [true]. With neither trigger given the spec is inert.
    @raise Invalid_argument on negative times or a non-positive RPC
    count. *)

(** {2 Cluster-level fault classes}

    Rack faults are pure schedules: every predicate below is a pure
    function of the plan and a simulated time, so any shard consulting
    one at any moment computes the same answer without shared mutable
    state — a fault is a property of the plan, never of event order. *)

type window = { starts : Sim.Units.time; until : Sim.Units.time }
(** A half-open interval [\[starts, until)] of simulated time. *)

val window : starts:Sim.Units.time -> until:Sim.Units.time -> window
(** @raise Invalid_argument on a negative start or an empty interval. *)

val in_window : window -> Sim.Units.time -> bool

type flap = {
  first_down : Sim.Units.time;  (** first down-edge (before jitter) *)
  up_for : Sim.Units.duration;  (** nominal up time per cycle *)
  down_for : Sim.Units.duration;  (** down time per cycle *)
  jitter : Sim.Units.duration;
      (** maximum seeded forward shift of each cycle's down-edge *)
}
(** A periodic link flap schedule: the link repeats
    [up_for + down_for]-long cycles starting at [first_down], down for
    [down_for] within each cycle, the down-edge shifted by a per-cycle
    hash draw in [\[0, jitter\]]. [jitter <= up_for] keeps every down
    window inside its own cycle, so membership is O(1) in the cycle
    index — no cumulative-sum walk, even over hour-long soaks. *)

val flap :
  ?first_down:Sim.Units.time ->
  up_for:Sim.Units.duration ->
  down_for:Sim.Units.duration ->
  ?jitter:Sim.Units.duration ->
  unit ->
  flap
(** @raise Invalid_argument on non-positive cycle parts, a negative
    [first_down], or [jitter > up_for]. *)

val flap_down_at : seed:int -> flap -> at:Sim.Units.time -> bool
(** Pure membership test: is the link down at [at]? *)

val flap_edge : seed:int -> flap -> cycle:int -> Sim.Units.time
(** The [cycle]-th (0-based) down-edge instant, jitter applied —
    strictly increasing in [cycle]. *)

type plane = Host of int | Master
(** An endpoint class a partition can cut: a worker host (by rack
    index) or the master/control plane. *)

type partition = { srcs : plane list; dsts : plane list; span : window }
(** An asymmetric cut: during [span], traffic from any plane in [srcs]
    to any plane in [dsts] is dropped (and counted); the reverse
    direction is untouched unless listed by another partition. *)

val partition : srcs:plane list -> dsts:plane list -> span:window -> partition
(** @raise Invalid_argument on empty plane lists or a negative host. *)

type cluster = {
  flaps : (int * flap) list;
      (** per-host link flaps: host [h]'s wire to the switch drops
          frames (and control probes — they cross the same wire) in
          both directions while the flap schedule says down *)
  wedges : (int * window) list;
      (** switch egress-port failures: during the window the port's
          transmitter is wedged — frames queue behind it and overflow
          drops are counted, never silent *)
  brownouts : window list;
      (** whole-switch brownouts: the crossbar stalls, ingress queues
          back up, overflow drops are counted *)
  partitions : partition list;  (** asymmetric directed cuts *)
  master : server_fault;
      (** master crash/restart (time-triggered only): workers survive
          it by re-registering under a new lease generation *)
}

val no_cluster : cluster

val cluster :
  ?flaps:(int * flap) list ->
  ?wedges:(int * window) list ->
  ?brownouts:window list ->
  ?partitions:partition list ->
  ?master:server_fault ->
  unit ->
  cluster
(** @raise Invalid_argument on negative hosts/ports or a
    count-triggered master fault. *)

val cluster_is_none : cluster -> bool
(** No cluster fault armed — every seam stays on its zero-cost path. *)

type t = {
  seed : int;  (** root seed all injector streams derive from *)
  wire : link;  (** client harness <-> server MAC, both directions *)
  nic : link;
      (** NIC DMA completion stage: [drop] forces a counted tail drop
          of the DMA'd frame, [corrupt] flips a byte of the DMA'd
          bytes so the driver-side parse rejects the descriptor.
          [duplicate]/[reorder]/[drop_nth] do not apply here. *)
  fill_delay : float;
      (** probability that a coherence fill (a [Home_agent.stage]) is
          delayed by [fill_delay_ns] — with a delay longer than the
          stack's TRYAGAIN timeout this forces real TRYAGAIN recovery
          under load *)
  fill_delay_ns : Sim.Units.duration;
  server : server_fault;
      (** scripted server-process crash/restart (see {!Server_fault}) *)
  cluster : cluster;  (** rack-scale fault schedules (see {!cluster}) *)
}

val none : t
(** The identity plan; injectors configured with it are zero-cost. *)

val make :
  ?seed:int ->
  ?wire:link ->
  ?nic:link ->
  ?fill_delay:float ->
  ?fill_delay_ns:Sim.Units.duration ->
  ?server:server_fault ->
  ?cluster:cluster ->
  unit ->
  t
(** @raise Invalid_argument on out-of-range probabilities/delays. *)

val derived_seed : t -> salt:int -> int
(** A per-injector seed decorrelated from the root seed. Injectors at
    different choke points use distinct salts so their fault streams
    are independent. *)

val derived_rng : t -> salt:int -> Sim.Rng.t

val flap_seed : t -> host:int -> int
(** The seed of host [host]'s flap-jitter stream — exported so the
    rack chaos driver can precompile per-host predicates. *)

val flap_down : t -> host:int -> at:Sim.Units.time -> bool
(** Is host [host]'s link down at [at]? [false] when the plan has no
    flap for that host. *)
