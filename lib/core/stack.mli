(** The end-to-end Lauberhorn server stack (paper §5, Figures 3–5).

    Ties together every piece: frames enter through the MAC, stream
    through the hardware pipeline (parse → demux → hardware unmarshal →
    scheduling-state lookup), and are dispatched:

    - {b fast path}: a worker thread of the target service is parked on
      its endpoint's CONTROL line → the NIC stages the prepared line;
      the stalled load returns with code pointer + arguments; the
      handler runs with zero software dispatch overhead;
    - {b slow path}: no worker is active → the request still lands in
      the endpoint, and a KERNEL_DISPATCH message goes to a kernel
      dispatcher thread's own CONTROL lines; the dispatcher wakes a
      worker, which enters the user-mode loop (Figure 5).

    Workers receive TRYAGAIN on timeout or when the NIC kicks them to
    free a core (the kernel's wake-enqueue signal); they then yield,
    and after [tryagains_before_yield] consecutive empty cycles
    deactivate, implementing NIC-driven core scaling. Large payloads
    fall back to DMA per the configured threshold. *)

(** How services are bound to cores: the OS-integration switch.

    [Static] is the CC-NIC/nanoPU-style ablation: a coherently-attached
    NIC with the {e traditional} hardware/software split (paper §2:
    such designs "deliver packets directly into the register file" but
    "preserve the same hardware/software boundary ... this works well
    when the workload is relatively static, can be bound to dedicated
    cores, and is rarely idle"). It keeps the same CONTROL-line
    delivery — parked loads, staged lines, fetch-exclusive response
    collection, NACKs, crash limbo, the RX pipeline — and removes only
    the OS integration:

    - each service has one worker, pinned to core [i mod ncores] for
      the [i]th service; an idle service still owns its core (parked,
      not spinning) and colocated services share a core by TRYAGAIN
      turns only;
    - no kernel channel: no dispatcher threads, no ["kernel"] process;
    - no kicks: neither the kernel's wake-enqueue preemption kick nor
      the park-time self-kick;
    - no scheduling-state mirror and no NIC-driven scaling or admission
      control; a kill sweeps NIC state in the same step, with no push
      lag, and a restart redelivers the limbo right away.

    Its counter group, tracer track and driver are named
    ["ccnic-static"]. Comparing it against [Os_integrated] in E6/E7
    separates what the coherent interconnect buys (latency) from what
    OS integration buys (flexibility under dynamic load). *)
type binding = Os_integrated | Static

type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  min_workers : int;  (** Workers kept active even when idle. *)
  max_workers : int;  (** Scale-up ceiling (≤ threads created). *)
}

val spec :
  ?min_workers:int -> ?max_workers:int -> port:int ->
  Rpc.Interface.service_def -> service_spec
(** Defaults: min 1, max 1. *)

type t

val create :
  Sim.Engine.t -> cfg:Config.t -> ncores:int -> ?binding:binding ->
  ?mirror_mode:Sched_mirror.mode -> ?fault:Fault.Plan.t ->
  ?metrics:Obs.Metrics.t -> ?tracer:Obs.Tracer.t -> ?sanitize:Sanitize.t ->
  services:service_spec list -> egress:(Net.Frame.t -> unit) -> unit -> t
(** Builds kernel (default costs), home agent, endpoints, the NIC's
    dispatch table (one record per service, found by port), mirror,
    two dispatcher kernel threads and service worker threads; services
    with [min_workers > 0] start with that many workers already parked
    (hot services).

    [binding] defaults to [Os_integrated]. Under [Static], there are
    no dispatchers, [mirror_mode] is ignored and every spec must have
    exactly one worker ([min_workers = max_workers = 1]).

    [fault] (default {!Fault.Plan.none}) arms the coherence choke
    point: fills are delayed per the plan's [fill_delay] knobs, forcing
    workers through real TRYAGAIN recovery. The default plan draws no
    randomness and changes nothing. Fault and recovery events are
    counted once, on the same counters a fault-free run registers
    ([kills], [crash_nacks], [requeues], [sheds], ...).

    [metrics] (default a fresh registry) unifies the stack's exported
    scalars: the robustness counters above, plus the home agent's
    delayed-fill/TRYAGAIN tallies as derived gauges.

    [tracer] (default a fresh, disabled tracer) collects per-RPC causal
    spans: a root span opened at {!ingress}, stage spans at each
    pipeline boundary (mac → nic_pipeline → queue → handler → collect →
    tx, with parse/demux/unmarshal detail spans on their own track),
    closed at egress. Stage durations telescope: they sum exactly to
    the recorder-measured end-system latency. Disabled, every emission
    is one branch.

    [sanitize] attaches the runtime sanitizers: home-agent generation
    discipline ({!Sanitize.Coherence_watch}) and scheduler-mirror
    convergence plus swept-pid dispatch checks
    ({!Sanitize.Mirror_watch}).
    @raise Invalid_argument if [services] is empty, if two specs share
    a port or a service id, or if a spec has more or fewer than one
    worker under [Static]. *)

val ingress : t -> Net.Frame.t -> unit
(** Connect as the wire's deliver callback. *)

val kernel : t -> Osmodel.Kernel.t
val home_agent : t -> Coherence.Home_agent.t
val mirror : t -> Sched_mirror.t option
(** [None] under a [Static] binding. *)

val counters : t -> Sim.Counter.group

val in_flight : t -> int
(** Requests between dispatch and collection. Each holds one of the
    stack's recycled in-flight slots: this is the slots made less the
    free ones, so it is 0 once every request is answered. *)

val slots_made : t -> int
(** In-flight slots built so far, free or held. *)

val active_workers : t -> service_id:int -> int
(** Currently active (scheduled or parked) workers of a service. *)

(** NIC-gathered statistics of one local service (paper §6: "support
    for tracing, debugging, and statistics presents interesting
    properties for further close integration with the OS"). The NIC
    sees both the arrival and the response of every RPC, so it measures
    end-system latency per service at no CPU cost. Each request served
    over the wire is recorded once, when its response is collected;
    nested calls hairpinned back to this machine are not. *)
type service_stats = private {
  latency : Sim.Histogram.t;  (** End-system latency as the NIC saw it. *)
  mutable fast : int;  (** Delivered straight into a parked load. *)
  mutable queued : int;  (** Queued behind a busy worker. *)
  mutable cold : int;  (** Through the kernel (Figure 5). *)
  mutable bytes_in : int;  (** Argument payload bytes. *)
  mutable bytes_out : int;  (** Response payload bytes. *)
}

val service_stats : t -> service_id:int -> service_stats
(** The live record the stack updates.
    @raise Invalid_argument for a service this stack does not host. *)

val metrics : t -> Obs.Metrics.t
(** The unified metrics registry this stack exports through. *)

val tracer : t -> Obs.Tracer.t
(** The stack's span collector ({!Obs.Tracer.enable} to record). *)

val set_address : t -> Net.Frame.endpoint -> unit
(** This machine's network identity (source of outbound nested calls).
    Defaults to 10.0.0.1 / 02:00:00:00:00:01. *)

val add_remote_service :
  t -> service_id:int -> server:Net.Frame.endpoint ->
  response_schema:Rpc.Schema.t -> unit
(** Route nested calls to [service_id] over the wire to another
    machine ([server] is its address and service port). The response
    schema is registered so the NIC can unmarshal remote replies —
    microservice chains span machines in real deployments.
    @raise Invalid_argument if the service is hosted locally. *)

(** {1 Crash/restart lifecycle} *)

val kill_service : t -> service_id:int -> unit
(** Crash the service's process: every thread dies where it stands
    (kernel-side, immediately). The NIC is {e not} told synchronously —
    its scheduler mirror learns after the usual push lag, and only then
    does the NIC-side teardown run: CONTROL lines are reset, requests
    the dead process held are NACKed [err_dead] from the in-flight
    table ("stale dispatches caught"), NIC-SRAM queue contents move to
    a limbo queue for redelivery, and subsequent arrivals are refused
    on the wire until a restart. During the stale window, dispatches
    can still land on the corpse; they are caught by the sweep — never
    silently lost. Under [Static] there is no mirror and no stale
    window: the sweep runs in the same step as the kill. No-op if
    already dead. *)

val restart_service : t -> service_id:int -> unit
(** Bring a killed service back: same pid, fresh worker threads over
    the surviving endpoints, [min_workers] re-activated. When the
    respawn push lands at the NIC, limbo'd requests are redelivered
    (counted as "requeues"); under [Static], right after the respawn.
    Threads keep their core pinning. No-op if alive. *)

val on_handled : t -> (unit -> unit) -> unit
(** Register a callback invoked after each RPC handled by any worker
    (the server-fault injector's [crash_after_rpcs] trigger). *)

val dispatcher_count : t -> int
(** Dispatcher kernel threads; 0 under [Static]. *)

val retire_dispatcher : t -> idx:int -> bool
(** Send RETIRE to a parked dispatcher kernel thread: it leaves its CPU
    entirely (paper §5.2's core-reallocation path for non-preemptible
    kernels). Returns [false] if that dispatcher is not currently
    parked. *)

val resume_dispatcher : t -> idx:int -> unit
(** Wake a retired dispatcher; it re-enters its monitoring loop. *)

val driver : t -> Harness.Driver.t
(** Package as a harness driver. *)
