(** The kernel-bypass baseline: DPDK/IX-style poll-mode, run-to-
    completion stack.

    Each poller owns one dedicated, pinned core and one NIC receive
    queue; the NIC's flow director steers each service's UDP port to
    the queue of the poller that statically owns that service.
    Interrupts are permanently masked; an empty ring costs spin cycles
    (accounted precisely, not simulated per iteration).

    Fast when the assignment matches the load; rigid when it does not:
    services cannot move between pollers, idle pollers burn their core,
    and a hot poller cannot borrow its neighbour's — exactly the
    trade-off the paper targets (§1–2). *)

type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
}

val spec : port:int -> Rpc.Interface.service_def -> service_spec

type t

val create :
  Sim.Engine.t -> profile:Coherence.Interconnect.profile -> ncores:int ->
  ?pollers:int -> ?fault:Fault.Plan.t -> ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t -> ?sanitize:Sanitize.t ->
  ?steering:Nic.Steer_verify.verified -> services:service_spec list ->
  egress:(Net.Frame.t -> unit) -> unit -> t
(** The kernel runs with its default costs and the software path with
    {!Costs.default}. [pollers] defaults to [ncores]. [fault] (default
    {!Fault.Plan.none}) is forwarded to the DMA NIC as in
    {!Linux_stack.create}, with its drop/pool gauges on [metrics].
    [tracer] collects the per-RPC stage chain poll_rx → app → marshal →
    tx_dma (summing exactly to the measured latency). Services are
    assigned to pollers round-robin; the assignment is static for the
    stack's lifetime.

    [steering] replaces the default port→poller flow director with a
    statically verified application-defined steering program
    ({!Nic.Steer_verify.install}): its per-packet cost is charged in
    the NIC pipeline and per-lane counters land on [metrics]. Any
    poller can serve any service port, so cross-lane steering (e.g.
    key-hash affinity) trades the rigid static assignment for cache
    locality.
    @raise Invalid_argument if [services] is empty, if two specs share
    a port, or if [pollers] is outside [1, ncores]. *)

val kernel : t -> Osmodel.Kernel.t
val nic : t -> Nic.Dma_nic.t
val counters : t -> Sim.Counter.group
val poller_of_port : t -> port:int -> int

val flush_spin : t -> unit
(** Charge every poller's open idle-spin window up to the current
    simulated time. Call before reading the kernel's cycle ledgers
    (spin is otherwise only accounted when a packet ends the window). *)

val kill_service : t -> service_id:int -> unit
(** Crash the bypass application. One process owns every ring, so a
    crash in any service takes down all pollers at once. Requests in a
    handler's hands are lost, and arrivals during the outage accumulate
    in the NIC rings until they overflow (drops counted by the DMA
    NIC) — the client gets no transport-level signal. No-op if already
    dead. @raise Invalid_argument on an unknown service. *)

val restart_service : t -> service_id:int -> unit
(** Respawn the application with fresh pinned poller threads; each
    immediately drains whatever survived in its RX ring. No-op if
    alive. @raise Invalid_argument on an unknown service. *)

val driver : t -> Harness.Driver.t
