(** A top-of-rack switch model.

    [ports] devices (hosts, plus typically one uplink) hang off the
    switch, each behind a wire with its own latency and a per-frame
    serialization (transmit) time. A frame entering at {!ingress}
    traverses: a finite per-port ingress FIFO, a crossbar that forwards
    one head-of-line frame per port per 300 ns, the routed output
    port's finite egress FIFO, and finally that port's transmitter —
    at which point [deliver] fires and the caller carries the frame
    over the port's wire (e.g. across a {!Sim.Shard_engine} boundary).

    {b Determinism contract}: the delivery order is a pure function of
    each frame's [(arrival time, ingress port)]. Arrivals sharing one
    simulated instant are staged per ingress port and admitted in
    ascending port order, regardless of the event-schedule order that
    delivered them — this mirrors (and composes with)
    {!Sim.Shard_engine}'s window merge, which orders same-time
    cross-shard messages by source shard. Ties never fall back to
    engine sequence numbers, so the contract survives any
    event-injection order. The pair is unique per frame on any
    physical script — a serialized wire delivers at most one frame per
    instant per port; feeding two same-instant frames into one port
    falls back to {!ingress} call order.

    {b Cost}: a frame's path through the switch allocates nothing. Its
    events are closures built at {!create} (one sweep per instant, one
    crossbar completion and one transmit completion per port), and
    the frames wait in per-port FIFOs.

    {b No silent loss}: every frame that enters is either delivered or
    counted — ingress-queue overflow, egress-queue overflow, unroutable
    frames, and every fault-induced loss (wedged-port overflow,
    partition cut) each have a counter. {!stats} conserves:
    [ingressed = delivered + drop_in + drop_out + unroutable +
    port_drops + partition_drops + in-flight]. *)

type port_conf = {
  latency : Sim.Units.duration;
      (** Wire latency between this port and its device — exported for
          the fabric's lookahead matrix; the switch itself does not
          consume it (delivery happens at transmit-complete, the wire
          crossing is the caller's). *)
  tx : Sim.Units.duration;
      (** Per-frame serialization time on this port's transmitter. *)
}

type stats = {
  ingressed : int;
  delivered : int;
  drop_in : int;  (** Frames dropped at a full ingress queue. *)
  drop_out : int;  (** Frames dropped at a full egress queue. *)
  unroutable : int;  (** Frames [route] could not map to a port. *)
  port_drops : int;
      (** Frames dropped behind a wedged egress port's full queue. *)
  partition_drops : int;
      (** Frames cut at the crossbar by an armed partition. *)
}

type t

(** Passive observation points for an external tracing plane (see the
    rack experiments' cross-fabric span emitter): a frame's admission
    at {!ingress}, its crossbar completion (with the routed output
    port, [None] when unroutable), and its transmit completion —
    immediately before [deliver]. The switch never consults them for
    behaviour; arming them cannot perturb the determinism contract. *)
type hooks = {
  on_ingress : port:int -> time:Sim.Units.time -> Net.Frame.t -> unit;
  on_forward :
    port:int -> dst:int option -> time:Sim.Units.time -> Net.Frame.t -> unit;
  on_transmit : port:int -> time:Sim.Units.time -> Net.Frame.t -> unit;
}

val create :
  Sim.Engine.t ->
  ports:port_conf array ->
  ?cap_in:int ->
  ?cap_out:int ->
  ?metrics:Obs.Metrics.t ->
  route:(Net.Frame.t -> int option) ->
  deliver:(port:int -> Net.Frame.t -> unit) ->
  unit ->
  t
(** [cap_in]/[cap_out] bound the per-port ingress/egress queues in
    frames (defaults 64); the crossbar forwards one frame per port per
    300 ns. [route] maps a frame to its
    output port ([None], or a port out of range, counts as
    unroutable); it runs once per frame, so a [route] that answers
    preallocated options keeps the frame path allocation-free. [deliver] fires on the
    switch's engine at transmit-complete time. [metrics] is the
    registry the scalar counters ([switch_ingressed],
    [switch_delivered], [switch_drop_in], [switch_drop_out],
    [switch_unroutable]) register on — a private one when omitted;
    {!stats} is a view of the same counters either way.

    @raise Invalid_argument on an empty port array, a non-positive
    capacity or delay, or a non-positive port [tx]. *)

val ingress : t -> port:int -> Net.Frame.t -> unit
(** A frame arrives from the device on [port]. Must be called from the
    switch engine's own events. @raise Invalid_argument on a bad
    port. *)

val ports : t -> int
val port_conf : t -> int -> port_conf
val stats : t -> stats

val metrics : t -> Obs.Metrics.t
(** The registry behind {!stats} (the one passed to {!create}, or the
    switch's private one). *)

val tap : t -> port:int -> Obs.Pcap.t -> unit
(** Arm a pcap port-tap: every frame admitted from [port]'s device and
    every frame transmitted to it is appended to the writer with its
    simulated timestamp, so any rack link can be dumped and diffed.
    Disarmed ports cost one load-and-branch per frame.
    @raise Invalid_argument on a bad port. *)

val set_hooks : t -> hooks option -> unit
(** Arm (or disarm) the tracing observation points. [None] — the
    default — costs one load-and-branch per observation site. Arm only
    from a config-gated path (simlint flags unconditional installation
    inside [lib/]). *)

(** {2 Fault seams}

    Deterministic fault injection points, intended to be armed only by
    [Fault.Rack_chaos] from a {!Fault.Plan} — simlint's [fault-seam]
    rule flags any other cluster fault-state mutation inside [lib/].
    Every predicate must be a pure function of its arguments (a plan
    schedule, never shared mutable state), so delivery and loss order
    remain a function of [(arrival-time, ingress port)] and chaos runs
    stay byte-identical run to run. [None] — the
    default for each seam — costs one load-and-branch on its consulting
    path; with no seam armed the switch's behaviour and its metrics
    snapshot are byte-identical to the pre-seam model (the fault-loss
    counters register lazily at arm time). *)

val set_port_wedge :
  t -> (port:int -> at:Sim.Units.time -> Sim.Units.time option) option -> unit
(** Egress-port failure: while the predicate answers [Some until] (the
    first instant the port is free again), [port]'s transmitter is
    wedged — queued frames serialize only after the wedge lifts, and
    frames arriving behind a full queue are counted as [port_drops].
    Arming registers the [switch_port_drops] counter. *)

val set_brownout :
  t -> (at:Sim.Units.time -> Sim.Units.time option) option -> unit
(** Whole-switch brownout: while the predicate answers [Some until],
    crossbar service starts are deferred to [until] (service already
    begun completes — non-preemptible), so ingress FIFOs back up and
    overflow as counted [drop_in]. *)

val set_partition :
  t -> (src:int -> dst:int -> at:Sim.Units.time -> bool) option -> unit
(** Asymmetric partition cut at the crossbar: a routed frame whose
    [(ingress port, egress port)] pair the predicate cuts at forward
    time is dropped and counted as [partition_drops] ([src]→[dst] only;
    the reverse direction asks the predicate with swapped arguments).
    Arming registers the [switch_partition_drops] counter. *)
