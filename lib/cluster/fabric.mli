(** A rack: N hosts and a ToR {!Switch} mapped onto
    {!Sim.Shard_engine}, one host per shard.

    Shards [0 .. hosts-1] each own one host's engine (NIC, kernel and
    services live there untouched); shard [hosts] owns the switch and —
    by convention — the rack's master control plane and clients hanging
    off the switch's uplink port. The shard lookahead is the per-pair
    wire-latency matrix ({!Sim.Shard_engine.create}): host [h] ↔
    switch is port [h]'s wire latency, host ↔ host is the two-link sum
    (no frame crosses the rack in less than a switch traversal), so the
    conservative window width is exactly the shortest link.

    Frame paths (every hop either a switch traversal or a wire
    crossing posted with that wire's latency):

    - a host's stack egress goes {!host_egress} → post to the switch
      shard → {!Switch.ingress} on the host's port;
    - {!Switch}-delivered frames for a host port are posted to that
      host's shard and handed to its {!connect_host} ingress;
    - uplink traffic enters via {!uplink_send} (client → switch) and
      leaves via the {!connect_uplink} callback (switch → client),
      both on the master shard.

    Each of these wires is a FIFO of the frames in flight with one
    arrival event closure built at {!create}: a wire's latency is
    constant, so its frames arrive in the order they were sent, and
    carrying one allocates nothing beyond the shard post itself.

    Control-plane messages ({!post_to_host} / {!post_to_master}) cross
    the same wires as closures — spawn, probe, kill and register
    traffic pays the same latency as data. *)

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
(** Build the engines (one per host + the switch/master shard), the
    shard engine and the switch. [host_link] is every host port's wire
    (default 1 µs latency, 100 ns tx) unless [host_links] gives a
    per-host array; [uplink] is the client-facing port (default 500 ns
    latency, 50 ns tx). The switch forwards one frame per port per
    300 ns. [metrics] is handed to
    {!Switch.create} so the switch counters land on a caller-owned
    registry.

    @raise Invalid_argument on [hosts < 1] or a mis-sized
    [host_links]. *)

val hosts : t -> int
val switch : t -> Switch.t
val host_engine : t -> int -> Sim.Engine.t
val master_engine : t -> Sim.Engine.t

val host_endpoint : t -> int -> port:int -> Net.Frame.endpoint
(** Host [h]'s network identity on UDP [port]: a per-host MAC and IP
    (10.0.2.h+1) the switch routes on. Address request frames here. *)

val connect_host : t -> int -> ingress:(Net.Frame.t -> unit) -> unit
(** Wire host [h]'s stack ingress. Frames delivered to an unconnected
    host are counted ({!undeliverable}), never silently lost. *)

val connect_uplink : t -> (Net.Frame.t -> unit) -> unit
(** Wire the uplink's receive side (client reply handling). *)

val host_egress : t -> int -> Net.Frame.t -> unit
(** Host [h] transmits a frame (use as the stack's egress). Call only
    from host [h]'s own events. *)

val uplink_send : t -> Net.Frame.t -> unit
(** A client behind the uplink transmits a frame toward the rack. Call
    only from master-shard events (or before {!run}). *)

val post_to_host : t -> host:int -> (unit -> unit) -> unit
(** Run a closure on host [h]'s shard one host-link latency from now
    (master-shard callers only): probes, kills, respawn commands. *)

val post_to_master : t -> host:int -> (unit -> unit) -> unit
(** Run a closure on the master shard one host-link latency from now
    (host-shard callers only): probe acks, registrations. *)

val set_link_fault :
  t -> (src:int -> dst:int -> at:Sim.Units.time -> bool) option -> unit
(** Arm (or disarm) the rack's wire fault seam on the underlying
    {!Sim.Shard_engine.set_wire_fault} slot: [cut ~src ~dst ~at]
    answers whether the [src]→[dst] wire (shard indices; [hosts] is
    the switch/master shard) eats a message delivered at [at]. Every
    swallowed post — frame or control closure; they cross the same
    wires — is counted in {!link_drops_total}, never silent. The predicate must be a pure function of its
    arguments (a {!Fault.Plan} schedule); [Fault.Rack_chaos] is the
    intended installer — simlint's [fault-seam] rule flags any other
    installation inside [lib/]. [None] — the default — keeps the post
    path at one load-and-branch. *)

val link_drops_total : t -> int
(** Messages eaten at cut wires so far. *)

val run : t -> until:Sim.Units.time -> unit
val undeliverable : t -> int
val windows_run : t -> int
val messages_merged : t -> int

val events_processed : t -> int
(** Total events fired across every shard (for the events-per-window
    measure). *)
