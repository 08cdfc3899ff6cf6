(** A rack: N hosts and a ToR {!Switch} on one {!Sim.Engine}.

    Every host's NIC, kernel and services, the switch, the rack's
    master control plane and the clients hanging off the switch's
    uplink port all schedule on the fabric's one engine ({!engine}).
    What connects them is the wires: host [h] sits behind port [h]'s
    wire, the uplink clients behind port [hosts]'s.

    Frame paths (every hop either a switch traversal or a wire
    crossing that runs that wire's latency later):

    - a host's stack egress goes {!host_egress} → host wire →
      {!Switch.ingress} on the host's port;
    - {!Switch}-delivered frames for a host port cross that host's
      wire and are handed to its {!connect_host} ingress;
    - uplink traffic enters via {!uplink_send} (client → switch) and
      leaves via the {!connect_uplink} callback (switch → client).

    Each of these wires is a FIFO of the frames in flight with one
    arrival event closure built at {!create}: a wire's latency is
    constant, so its frames arrive in the order they were sent, and
    carrying one allocates nothing. Every
    hand-off time is computed here from the link's latency, never by
    a caller.

    Control-plane messages ({!post_to_host} / {!post_to_master}) cross
    the same host wires as closures — spawn, probe, kill and register
    traffic pays the same latency as data, and the same wire faults. *)

type t

val create :
  ?host_link:Switch.port_conf ->
  ?uplink:Switch.port_conf ->
  ?host_links:Switch.port_conf array ->
  ?cap_in:int ->
  ?cap_out:int ->
  ?metrics:Obs.Metrics.t ->
  hosts:int ->
  unit ->
  t
(** Build the engine, the switch and the wires. [host_link] is every
    host port's wire (default 1 µs latency, 100 ns tx) unless
    [host_links] gives a per-host array; [uplink] is the client-facing
    port (default 500 ns latency, 50 ns tx). The switch forwards one
    frame per port per 300 ns. [metrics] is handed to {!Switch.create}
    so the switch counters land on a caller-owned registry.

    @raise Invalid_argument on [hosts < 1] or a mis-sized
    [host_links]. *)

val hosts : t -> int
val switch : t -> Switch.t

val engine : t -> Sim.Engine.t
(** The rack's one engine: every host, the switch, the master and the
    uplink clients schedule on it. *)

val host_engine : t -> int -> Sim.Engine.t
(** {!engine}, whatever the host. Kept only because perfbench compiles
    against it. *)

val master_engine : t -> Sim.Engine.t
(** {!engine}. Kept only because perfbench compiles against it. *)

val host_endpoint : t -> int -> port:int -> Net.Frame.endpoint
(** Host [h]'s network identity on UDP [port]: a per-host MAC and IP
    (10.0.2.h+1) the switch routes on. Address request frames here. *)

val connect_host : t -> int -> ingress:(Net.Frame.t -> unit) -> unit
(** Wire host [h]'s stack ingress. Frames delivered to an unconnected
    host are counted ({!undeliverable}), never silently lost. *)

val connect_uplink : t -> (Net.Frame.t -> unit) -> unit
(** Wire the uplink's receive side (client reply handling). *)

val host_egress : t -> int -> Net.Frame.t -> unit
(** Host [h] transmits a frame (use as the stack's egress). *)

val uplink_send : t -> Net.Frame.t -> unit
(** A client behind the uplink transmits a frame toward the rack. *)

val post_to_host : t -> host:int -> (unit -> unit) -> unit
(** Run a closure one host-[h]-link latency from now, as if it crossed
    the wire from the master to host [h]: probes, kills, respawn
    commands. *)

val post_to_master : t -> host:int -> (unit -> unit) -> unit
(** Run a closure one host-[h]-link latency from now, as if it crossed
    the wire from host [h] to the master: probe acks, registrations. *)

val set_link_fault :
  t -> (src:int -> dst:int -> at:Sim.Units.time -> bool) option -> unit
(** Arm (or disarm) the rack's wire fault seam: [cut ~src ~dst ~at]
    answers whether the [src]→[dst] host wire (ends numbered by host;
    [hosts] is the switch, and the master behind it) eats a hand-off
    that would land at [at]. Every swallowed hand-off — frame or
    control closure; they cross the same wires — is counted in
    {!link_drops_total}, never silent. The uplink's wires are never
    cut. The predicate must be a pure function of its arguments (a
    {!Fault.Plan} schedule); [Fault.Rack_chaos] is the intended
    installer — simlint's [fault-seam] rule flags any other
    installation inside [lib/]. [None] — the default — keeps the
    hand-off path at one load-and-branch. *)

val link_drops_total : t -> int
(** Hand-offs eaten at cut wires so far. *)

val run : t -> until:Sim.Units.time -> unit
(** [Sim.Engine.run ~until] on {!engine}. *)

val undeliverable : t -> int

val windows_run : t -> int
(** Always 0: the rack runs no windows. Kept only because perfbench
    compiles against it. *)

val messages_merged : t -> int
(** Always 0: no message is merged between windows. Kept only because
    perfbench compiles against it. *)

val events_processed : t -> int
(** Events fired by {!engine} so far. *)
