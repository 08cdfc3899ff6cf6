(* E17 — rack-scale cluster: N Lauberhorn hosts behind a ToR switch
   (lib/cluster), a master/worker control plane, and a rack-level load
   balancer, all on the fabric's one engine.

   Topology: each host runs a full Lauberhorn stack (own NIC pipeline,
   kernel, scheduler mirror) behind its own wire; the switch, the
   master control plane, and the clients hanging off the switch's
   uplink port sit at the other ends. Every frame pays its real path —
   client → uplink wire → switch (finite per-port queues, crossbar,
   per-port tx serialization) → host wire → host NIC, and back — and
   every control message (probe, ack, register, kill) crosses the same
   wires as a closure hand-off.

   Part (a), load sweep: an 8-host rack at two rack-wide offered loads,
   then a 16-host point. Each prints per-host handled counts, switch
   counters and the client's latency quantiles.

   Part (b), failure + re-steering: kill host 3's service mid-sweep and
   respawn it. The health-check marks the host dead within one probe
   period of the probe its crash ate; the balancer steers new
   connections away from the corpse from that instant until the respawn
   re-registers; in-flight RPCs on the dead host resolve to err_dead
   NACKs that the client converts into (re-steered) retries. The
   conservation line — completed + abandoned = sent, none outstanding,
   zero silent losses anywhere on the path — is the headline claim. A
   shedding window on host 5 shows the same steering reaction without a
   death.

   Wall-clock never appears on stdout. *)

let sweep_hosts = 8
let big_hosts = 16
let host_link = { Cluster.Switch.latency = Sim.Units.us 2; tx = Sim.Units.ns 100 }
let uplink = { Cluster.Switch.latency = Sim.Units.ns 500; tx = Sim.Units.ns 60 }
let probe_period = Sim.Units.us 500
let handler_time = Sim.Units.ns 500
let horizon = Sim.Units.ms 10
let sweep_drain = Sim.Units.ms 10
let rates = [ 200_000.; 600_000. ] (* rack-wide offered load *)

(* ---------- the balancer's routing ---------- *)

(* The client's route: each rpc_id is pinned to a balancer-picked host
   at first transmission, and a retransmit re-pins only if the master
   now believes the pinned host is dead (the LB resets the connection).
   The pick comes before the frame is built, so each transmission is
   addressed once, to the host's own endpoint, which is what the switch
   routes on.

   The pins are two [int] arrays indexed by the client's continuation
   slot (the low bits of the rpc_id), which the client recycles when a
   call completes, fails or is abandoned — so they are bounded by peak
   outstanding calls, not total calls issued, and an hours-long soak
   holds constant memory. [pin_ids] holds the full rpc_id of the slot's
   pinned call (0, which no rpc_id is, when none) and disambiguates a
   recycled slot: a stale entry steers exactly like a missing one. *)
type steering = {
  control : Cluster.Control.t;
  routes : Net.Frame.endpoint option array;
      (* per host, its endpoint on the service port, wrapped once *)
  mutable pin_ids : int array;
  mutable pin_hosts : int array;
  mutable unsteered : int;  (* calls issued while no host was steerable *)
  mutable resteered : int;  (* retransmits moved off a dead host *)
}

let grow_pins s ~slot =
  let len = Int.max (slot + 1) (2 * Array.length s.pin_ids) in
  let grow a = Array.append a (Array.make (len - Array.length a) 0) in
  s.pin_ids <- grow s.pin_ids;
  s.pin_hosts <- grow s.pin_hosts

let[@hot_path] pin s h ~slot ~id =
  if slot >= Array.length s.pin_ids then grow_pins s ~slot;
  s.pin_ids.(slot) <- id;
  s.pin_hosts.(slot) <- h

(* A fresh pick, pinned; -1 when no host is steerable. *)
let[@hot_path] pick_and_pin s ~slot ~id =
  let h = Cluster.Control.pick s.control in
  if h >= 0 then pin s h ~slot ~id;
  h

let[@hot_path] route s id =
  let slot = id land 0xF_FFFF in
  let target =
    if slot < Array.length s.pin_ids && Int.equal s.pin_ids.(slot) id then begin
      let h = s.pin_hosts.(slot) in
      if Cluster.Control.alive s.control ~host:h then h
      else begin
        (* pinned host died: re-steer the retry *)
        let h = pick_and_pin s ~slot ~id in
        if h >= 0 then s.resteered <- s.resteered + 1;
        h
      end
    end
    else begin
      (* first transmission (or a slot recycled from a finished call,
         which is the same thing) *)
      let h = pick_and_pin s ~slot ~id in
      if h < 0 then s.unsteered <- s.unsteered + 1;
      h
    end
  in
  (* with no steerable host nothing is sent; the call's retry timer
     will try again *)
  if target >= 0 then s.routes.(target) else None

(* ---------- one rack instance ---------- *)

type rack = {
  fabric : Cluster.Fabric.t;
  control : Cluster.Control.t;
  client : Harness.Client.t;
      (* the rack's one call ledger: counts and latencies of its calls *)
  servers : Common.server array;
  alive : bool array; (* per-host liveness flags (probe targets) *)
  service_port : int;
  steering : steering;
  (* failure timeline, recorded by control-plane callbacks *)
  mutable dead_at : (int * Sim.Units.time) list;
  mutable alive_at : (int * Sim.Units.time) list;
  mutable steered_at_death : int array;
  mutable steered_at_rereg : int array;
  chaos : Fault.Rack_chaos.t option; (* armed cluster fault driver (E19) *)
  leases : Cluster.Control.Worker_lease.t option array;
      (* per-host master leases, installed only when chaos is armed *)
  sanitize : Sanitize.t option;
      (* the session watching the rack's one engine, under
         LAUBERHORN_SANITIZE; each host's own session watches its pool,
         coherence and mirror *)
}

(* Build N Lauberhorn hosts on a fabric, register them with the master,
   and wire a steering client behind the uplink. Deterministic: all
   traffic between hosts and the master crosses Fabric wires.

   [obs], when given, arms the cross-fabric tracing plane (E18): the
   tracer lives at the master and records the client-side chain —
   uplink wire, switch ingress/crossbar/egress, the wire to the host —
   then skips over the interval the host's own stack tracer covers
   (every host tracer is enabled and records against the same trace id,
   carried in the frames' Wire_format context extension) and resumes on
   the reply path. Obs.Stitch reassembles the per-plane chains into one
   causal tree per RPC whose stages tile [send, reply] exactly. Each
   tracer is written only by its own plane's events (a host's by its
   stack, the master's by the switch hooks and the client), so arming
   changes no timing and breaks no determinism.

   [domains] is kept only because perfbench passes [~domains:1]: the
   rack runs in one domain, and any other value is refused. *)
let make_rack ?domains ?obs ?fault ?metrics ~hosts () =
  (match domains with
  | None | Some 1 -> ()
  | Some d ->
      invalid_arg
        (Printf.sprintf "Rack.make_rack: %d domains (only 1 is supported)" d));
  let fabric = Cluster.Fabric.create ~host_link ~uplink ?metrics ~hosts () in
  let engine = Cluster.Fabric.engine fabric in
  let sanitize = Common.engine_sanitizer engine in
  let setup = Workload.Scenario.echo_fleet ~n:1 ~handler_time () in
  let service_port = Workload.Scenario.port_of setup ~service_idx:0 in
  let alive = Array.make hosts true in
  let servers =
    Array.init hosts (fun h ->
        let server =
          Common.make_server ~ncores:4 ~max_workers:3
            ~engine ~egress:(Cluster.Fabric.host_egress fabric h)
            (Common.Lauberhorn
               (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
            setup
        in
        (match server.Common.lauberhorn with
        | Some s ->
            Lauberhorn.Stack.set_address s
              (Cluster.Fabric.host_endpoint fabric h ~port:service_port);
            if obs <> None then
              Obs.Tracer.enable (Lauberhorn.Stack.tracer s)
        | None -> ());
        Cluster.Fabric.connect_host fabric h
          ~ingress:server.Common.driver.Harness.Driver.ingress;
        server)
  in
  let rack_ref = ref None in
  let leases = Array.make hosts None in
  let control =
    Cluster.Control.create engine ~hosts ~probe_period
      ~probe:(fun ~host ->
        (* The epoch rides the probe: the host echoes it back in the
           ack, so an ack minted against a pre-restart registration is
           rejected (and counted) instead of resurrecting stale
           liveness state. *)
        let ep =
          match !rack_ref with
          | Some r -> Some (Cluster.Control.epoch r.control ~host)
          | None -> None
        in
        Cluster.Fabric.post_to_host fabric ~host (fun () ->
            if alive.(host) then begin
              (match leases.(host) with
              | Some l -> Cluster.Control.Worker_lease.saw_probe l
              | None -> ());
              Cluster.Fabric.post_to_master fabric ~host (fun () ->
                  match !rack_ref with
                  | Some r -> Cluster.Control.ack ?epoch:ep r.control ~host
                  | None -> ())
            end))
      ~on_dead:(fun ~host ->
        match !rack_ref with
        | Some r ->
            r.dead_at <- (host, Sim.Engine.now engine) :: r.dead_at;
            r.steered_at_death <- Cluster.Control.steered r.control
        | None -> ())
      ~on_alive:(fun ~host ->
        match !rack_ref with
        | Some r ->
            r.alive_at <- (host, Sim.Engine.now engine) :: r.alive_at;
            r.steered_at_rereg <- Cluster.Control.steered r.control
        | None -> ())
      ?metrics ()
  in
  (* The tracing plane: passive switch hooks emit the fabric stages of
     every RPC frame onto the master tracer, and the client send path
     below opens the root and stamps the trace context into the frame.
     Hook installation is gated on [obs] — the disarmed switch pays one
     load-and-branch per observation point. *)
  let uplink_port = hosts in
  (match obs with
  | None -> ()
  | Some tr ->
      Obs.Tracer.enable tr;
      let sw = Cluster.Fabric.switch fabric in
      let tc = Obs.Tracer.track tr "switch" in
      let lat p = (Cluster.Switch.port_conf sw p).Cluster.Switch.latency in
      (* Each hook reads the frame's RPC header in place. *)
      let rpc_frame frame =
        Result.is_ok (Rpc.Wire_format.check frame.Net.Frame.payload)
      in
      let rpc_id frame = Rpc.Wire_format.rpc_id frame.Net.Frame.payload in
      let is_request frame =
        Rpc.Wire_format.is_request frame.Net.Frame.payload
      in
      Cluster.Switch.set_hooks sw
        (Some
           {
             Cluster.Switch.on_ingress =
               (fun ~port ~time frame ->
                 if rpc_frame frame then begin
                   let rpc = rpc_id frame in
                   if is_request frame then begin
                     if port = uplink_port then
                       Obs.Tracer.stage tr ~rpc ~track:tc ~name:"uplink_wire"
                         time
                   end
                   else if port < uplink_port then begin
                     (* the interval since the cursor belongs to the
                        serving host's own tracer: skip to the instant
                        the reply left the host, then charge the host
                        wire *)
                     Obs.Tracer.skip_to tr ~rpc (time - lat port);
                     Obs.Tracer.stage tr ~rpc ~track:tc ~name:"wire_from_host"
                       time
                   end
                 end);
             on_forward =
               (fun ~port:_ ~dst:_ ~time frame ->
                 if rpc_frame frame then begin
                   let name =
                     if is_request frame then "switch_rx" else "switch_rx_rsp"
                   in
                   Obs.Tracer.stage tr ~rpc:(rpc_id frame) ~track:tc ~name time
                 end);
             on_transmit =
               (fun ~port ~time frame ->
                 if rpc_frame frame then begin
                   let rpc = rpc_id frame in
                   if is_request frame then begin
                     if port < uplink_port then begin
                       Obs.Tracer.stage tr ~rpc ~track:tc ~name:"switch_tx"
                         time;
                       Obs.Tracer.stage_until tr ~rpc ~track:tc
                         ~name:"wire_to_host" ~stop:(time + lat port)
                     end
                   end
                   else if port = uplink_port then begin
                     Obs.Tracer.stage tr ~rpc ~track:tc ~name:"switch_tx_rsp"
                       time;
                     Obs.Tracer.stage_until tr ~rpc ~track:tc
                       ~name:"uplink_back" ~stop:(time + lat uplink_port)
                   end
                 end);
           }));
  let steering =
    {
      control;
      routes =
        Array.init hosts (fun h ->
            Some (Cluster.Fabric.host_endpoint fabric h ~port:service_port));
      pin_ids = Array.make 64 0;
      pin_hosts = Array.make 64 0;
      unsteered = 0;
      resteered = 0;
    }
  in
  (* The uplink send path. A request arrives here addressed to its
     host; with tracing armed, its causal root opens at first
     transmission and the trace context rides inside the frame, across
     the switch, to the serving host's tracer. *)
  let send frame =
    match obs with
    | None -> Cluster.Fabric.uplink_send fabric frame
    | Some tr ->
        let request = frame.Net.Frame.payload in
        let id = Rpc.Wire_format.rpc_id request in
        let now = Sim.Engine.now engine in
        if not (Obs.Tracer.is_open tr ~rpc:id) then
          Obs.Tracer.rpc_begin tr ~rpc:id
            ~track:(Obs.Tracer.track tr "client")
            now;
        let parent =
          match Obs.Tracer.root_of tr ~rpc:id with Some r -> r | None -> 0
        in
        let ctx =
          Obs.Context.to_bytes
            { Obs.Context.trace = id; parent; origin = uplink_port }
        in
        Cluster.Fabric.uplink_send fabric
          (match Rpc.Wire_format.decode request with
          | Ok msg ->
              Net.Frame.make ~src:frame.Net.Frame.src
                ~dst:frame.Net.Frame.dst
                (Rpc.Wire_format.encode
                   (Rpc.Wire_format.with_ctx msg (Some ctx)))
          | Error _ -> frame)
  in
  let client =
    Harness.Client.create engine ~send ~route:(route steering) ?metrics ()
  in
  let uplink_rx frame =
    (match obs with
    | None -> ()
    | Some tr -> (
        (* reply back at the client: close the causal root at the same
           instant the client's latency sample is taken *)
        let reply = frame.Net.Frame.payload in
        match Rpc.Wire_format.check reply with
        | Ok () when not (Rpc.Wire_format.is_request reply) ->
            Obs.Tracer.rpc_end tr ~rpc:(Rpc.Wire_format.rpc_id reply)
              (Sim.Engine.now engine)
        | Ok () | Error _ -> ()));
    Harness.Client.on_reply client frame
  in
  Cluster.Fabric.connect_uplink fabric uplink_rx;
  (* spawn + register: each host announces itself across its own wire *)
  Array.iteri
    (fun h _ ->
      Cluster.Fabric.post_to_master fabric ~host:h (fun () ->
          match !rack_ref with
          | Some r -> Cluster.Control.register r.control ~host:h
          | None -> ()))
    servers;
  Cluster.Control.start control;
  (* Cluster fault domain (E19): compile and install the plan's fault
     classes, and give every host a master lease — when a master
     restart wipes the registration table, hosts notice the probe
     silence and re-register on their own, with no master cooperation.
     With no cluster faults in the plan nothing is installed and the
     rack is byte-identical to a fault-free build. *)
  let chaos =
    match fault with
    | Some plan when not (Fault.Plan.cluster_is_none plan.Fault.Plan.cluster)
      ->
        Some (Fault.Rack_chaos.arm ~plan ~fabric ~control ?metrics ())
    | Some _ | None -> None
  in
  if chaos <> None then
    Array.iteri
      (fun h (_ : Common.server) ->
        let l =
          Cluster.Control.Worker_lease.create engine
            ~timeout:(4 * probe_period)
            ~re_register:(fun () ->
              if alive.(h) then
                Cluster.Fabric.post_to_master fabric ~host:h (fun () ->
                    match !rack_ref with
                    | Some r -> Cluster.Control.register r.control ~host:h
                    | None -> ()))
        in
        Cluster.Control.Worker_lease.start l;
        leases.(h) <- Some l)
      servers;
  let rack =
    {
      fabric;
      control;
      client;
      servers;
      alive;
      service_port;
      steering;
      dead_at = [];
      alive_at = [];
      steered_at_death = Array.make hosts 0;
      steered_at_rereg = Array.make hosts 0;
      chaos;
      leases;
      sanitize;
    }
  in
  rack_ref := Some rack;
  rack

let setup_arrivals ?(timeout = None) rack ~rate ~seed =
  let engine = Cluster.Fabric.engine rack.fabric in
  let rng = Sim.Rng.create ~seed in
  let setup = rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let timeout, retries =
    match timeout with
    | Some (timeout, retries) -> (Some timeout, Some retries)
    | None -> (None, None)
  in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      ignore
        (Harness.Client.call_id ?timeout ?retries ~backoff:1.5
           ~max_timeout:(Sim.Units.ms 2) ~jitter:0.25 rack.client ~service_id
           ~method_id:0 ~port:rack.service_port
           (Rpc.Value.Blob (Bytes.make 64 'w'))
           ignore))

let finish rack =
  Array.iter Common.close rack.servers;
  Option.iter Sanitize.finish rack.sanitize

let quantile rack p =
  if Harness.Client.completed rack.client = 0 then 0
  else Sim.Histogram.quantile (Harness.Client.latencies rack.client) p

(* RPCs the host's service handled, as its stack counts them. *)
let handled (s : Common.server) =
  Sim.Counter.(value (counter s.driver.Harness.Driver.counters "rpcs_handled"))

(* The diffable per-rack digest: everything machine-independent. *)
let digest_lines rack =
  let st = Cluster.Switch.stats (Cluster.Fabric.switch rack.fabric) in
  let c = rack.client in
  [
    Printf.sprintf "client sent=%d done=%d out=%d p50=%s p99=%s"
      (Harness.Client.sent c)
      (Harness.Client.completed c)
      (Harness.Client.outstanding c)
      (Common.ns (quantile rack 0.5))
      (Common.ns (quantile rack 0.99));
    Printf.sprintf
      "switch in=%d out=%d drop_in=%d drop_out=%d unroutable=%d undeliv=%d"
      st.Cluster.Switch.ingressed st.Cluster.Switch.delivered
      st.Cluster.Switch.drop_in st.Cluster.Switch.drop_out
      st.Cluster.Switch.unroutable
      (Cluster.Fabric.undeliverable rack.fabric);
    Printf.sprintf "handled [%s]"
      (String.concat ","
         (Array.to_list
            (Array.map (fun s -> string_of_int (handled s)) rack.servers)));
    Printf.sprintf "steered [%s]"
      (String.concat ","
         (Array.to_list
            (Array.map string_of_int (Cluster.Control.steered rack.control))));
  ]

(* ---------- part (a): load sweep ---------- *)

let load_run ~hosts ~rate ~seed =
  let rack = make_rack ~hosts () in
  setup_arrivals rack ~rate ~seed;
  Cluster.Fabric.run rack.fabric ~until:(horizon + sweep_drain);
  finish rack;
  rack

let run_sweep () =
  List.iter
    (fun rate ->
      Common.note "rack load %s over %d hosts, RR balancer, probes every %s"
        (Common.rate_str rate) sweep_hosts (Common.ns probe_period);
      let rack = load_run ~hosts:sweep_hosts ~rate ~seed:1717 in
      Common.note_lines "rack" (digest_lines rack))
    rates

let run_big () =
  let rack = load_run ~hosts:big_hosts ~rate:400_000. ~seed:1718 in
  Common.note "%d-host rack at %s" big_hosts (Common.rate_str 400_000.);
  Common.note_lines "rack" (digest_lines rack)

(* ---------- part (b): host failure, detection, re-steering ---------- *)

let victim = 3
let shed_host = 5
let kill_at = Sim.Units.ms 3
let respawn_at = Sim.Units.ms 6
let shed_from = Sim.Units.ms 4
let shed_until = Sim.Units.ms 5
let failure_drain = Sim.Units.ms 30

let run_failure () =
  let rack = make_rack ~hosts:sweep_hosts () in
  let engine = Cluster.Fabric.engine rack.fabric in
  let setup = rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  (* the kill and the respawn are host-local events on the victim: the
     service process crashes where it stands, and the respawn
     re-registers with the master across the wire *)
  ignore
    (Sim.Engine.schedule_at engine ~at:kill_at
       (fun () ->
         rack.alive.(victim) <- false;
         rack.servers.(victim).Common.kill_service ~service_id));
  ignore
    (Sim.Engine.schedule_at engine ~at:respawn_at
       (fun () ->
         rack.servers.(victim).Common.restart_service ~service_id;
         rack.alive.(victim) <- true;
         Cluster.Fabric.post_to_master rack.fabric ~host:victim (fun () ->
             Cluster.Control.register rack.control ~host:victim)));
  (* a shedding window on another host: the admission-control signal
     reaches the master and steering reacts, no death involved *)
  ignore
    (Sim.Engine.schedule_at engine ~at:shed_from (fun () ->
         Cluster.Control.set_shedding rack.control ~host:shed_host true));
  ignore
    (Sim.Engine.schedule_at engine ~at:shed_until (fun () ->
         Cluster.Control.set_shedding rack.control ~host:shed_host false));
  let shed_steered_before = ref 0 in
  let shed_steered_during = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine ~at:shed_from (fun () ->
         shed_steered_before := (Cluster.Control.steered rack.control).(shed_host)));
  ignore
    (Sim.Engine.schedule_at engine ~at:shed_until (fun () ->
         shed_steered_during :=
           (Cluster.Control.steered rack.control).(shed_host)
           - !shed_steered_before));
  setup_arrivals rack
    ~timeout:(Some (Sim.Units.us 200, 20))
    ~rate:200_000. ~seed:1719;
  Cluster.Fabric.run rack.fabric ~until:(horizon + failure_drain);
  finish rack;
  let c = rack.client in
  Common.note
    "kill host %d at %s (respawn %s); shed host %d %s..%s; probe period %s"
    victim (Common.ns kill_at) (Common.ns respawn_at) shed_host
    (Common.ns shed_from) (Common.ns shed_until) (Common.ns probe_period);
  let detected =
    match List.assoc_opt victim (List.rev rack.dead_at) with
    | Some t -> t
    | None -> -1
  in
  let reregistered =
    match
      List.find_opt (fun (h, t) -> h = victim && t > kill_at) rack.alive_at
    with
    | Some (_, t) -> t
    | None -> -1
  in
  Common.note
    "timeline: dead detected +%s after kill (<= 2 probe periods: %b); \
     re-registered +%s after respawn"
    (Common.ns (detected - kill_at))
    (detected >= 0 && detected - kill_at <= 2 * probe_period)
    (Common.ns (reregistered - respawn_at));
  let outage_steered =
    rack.steered_at_rereg.(victim) - rack.steered_at_death.(victim)
  in
  Common.note
    "re-steering: host %d picked %d times while dead (expect 0); picked again \
     after re-register: %b; shed host %d picked %d times while shedding \
     (expect 0)"
    victim outage_steered
    ((Cluster.Control.steered rack.control).(victim)
     > rack.steered_at_rereg.(victim))
    shed_host !shed_steered_during;
  Common.note_lines "rack" (digest_lines rack);
  let sent = Harness.Client.sent c in
  let completed = Harness.Client.completed c in
  let abandoned = Harness.Client.abandoned c in
  let conserved =
    completed + abandoned = sent && Harness.Client.outstanding c = 0
  in
  let st = Cluster.Switch.stats (Cluster.Fabric.switch rack.fabric) in
  let silent_free =
    st.Cluster.Switch.drop_in = 0 && st.Cluster.Switch.drop_out = 0
    && st.Cluster.Switch.unroutable = 0
    && Cluster.Fabric.undeliverable rack.fabric = 0
  in
  Common.note
    "lifecycle: deaths=%d registrations=%d probes=%d acks=%d rejected=%d \
     retransmits=%d resteered=%d unsteered=%d"
    (Cluster.Control.deaths rack.control)
    (Cluster.Control.registrations rack.control)
    (Cluster.Control.probes_sent rack.control)
    (Cluster.Control.acks_received rack.control)
    (Harness.Client.rejected c)
    (Harness.Client.retransmits c)
    rack.steering.resteered rack.steering.unsteered;
  Common.note
    "conservation (done + abandoned = sent, none outstanding): %b; explicit \
     err_dead rejects seen: %b; no silent losses on the path: %b%s"
    conserved
    (Harness.Client.rejected c > 0)
    silent_free
    (if conserved && Harness.Client.rejected c > 0 && silent_free then
       "  [shape holds]"
     else "  [SHAPE VIOLATION]")

let run () =
  Common.section
    "E17: rack-scale cluster — ToR switch, control plane, load balancer";
  run_sweep ();
  run_big ();
  Common.note "";
  run_failure ();
  Common.note
    "paper expectation: per-host results are a pure function of the seeds;";
  Common.note
    "a host death is detected within a probe period, steered around,";
  Common.note
    "and every in-flight RPC resolves to a reply or an explicit reject."
