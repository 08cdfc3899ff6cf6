(** The traditional kernel receive path (paper Figure 1 + §2's twelve
    steps, as a conventional OS implements them).

    DMA NIC → moderated MSI-X → IRQ → NAPI softirq (driver poll, IP/UDP
    processing, socket demux) → wake a blocked server thread → context
    switch → recvfrom copy → software unmarshal → handler → software
    marshal → sendto → doorbell → NIC TX DMA.

    Flexible (any thread anywhere, arbitrarily many services) but every
    step above costs CPU cycles on the data path — this is the baseline
    the paper's Figure 5 contrasts against. *)

type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  threads : int;  (** Blocking server threads for this service. *)
}

val spec : ?threads:int -> port:int -> Rpc.Interface.service_def ->
  service_spec
(** [threads] defaults to 2. *)

type t

val create :
  Sim.Engine.t -> profile:Coherence.Interconnect.profile -> ncores:int ->
  ?fault:Fault.Plan.t -> ?metrics:Obs.Metrics.t -> ?tracer:Obs.Tracer.t ->
  ?sanitize:Sanitize.t -> services:service_spec list ->
  egress:(Net.Frame.t -> unit) -> unit -> t
(** The kernel runs with its default costs, the software path with
    {!Costs.default} and the NIC with {!Nic.Dma_nic.default_config}.

    [fault] (default {!Fault.Plan.none}) is forwarded to the DMA NIC
    (forced completion drops, DMA corruption caught by the driver's
    checksum validation); fault and pool gauges register on [metrics]
    (default a fresh registry).

    [tracer] (default a fresh, disabled tracer) collects the per-RPC
    stage chain nic_irq → socket → app → send → tx_dma, opened at
    ingress and closed when the response hits the wire; stage
    durations sum exactly to the measured end-system latency. *)

val kill_service : t -> service_id:int -> unit
(** Crash the service's process. The client gets {e no} transport-level
    signal: datagrams already in the socket stay queued (the kernel
    owns the buffer, so they are served after a restart) and requests
    in a handler's hands vanish — clients discover the crash by
    timeout only. No-op if already dead.
    @raise Invalid_argument on an unknown service. *)

val restart_service : t -> service_id:int -> unit
(** Respawn the killed process with fresh server threads; the surviving
    socket backlog is drained first. No-op if alive.
    @raise Invalid_argument on an unknown service. *)

val kernel : t -> Osmodel.Kernel.t
val counters : t -> Sim.Counter.group
val driver : t -> Harness.Driver.t
