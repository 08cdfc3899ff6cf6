(* E17 — rack-scale cluster: N Lauberhorn hosts behind a ToR switch
   (lib/cluster), a master/worker control plane, and a rack-level load
   balancer, all mapped one-host-per-shard onto the conservative-PDES
   engine.

   Topology: shards 0..N-1 each run a full Lauberhorn host (own NIC
   pipeline, kernel, scheduler mirror); shard N runs the switch, the
   master control plane, and the clients hanging off the switch's
   uplink port. Every frame pays its real path — client → uplink wire →
   switch (finite per-port queues, crossbar, per-port tx serialization)
   → host wire → host NIC, and back — and every control message (probe,
   ack, register, kill) crosses the same wires as closure posts. The
   shard lookahead is the per-pair wire-latency matrix, so the
   conservative window width equals the shortest link.

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

   Wall-clock never appears on stdout; events/window is the
   machine-independent window-occupancy measure, exactly as in E16. *)

let sweep_hosts = 8
let big_hosts = 16
let host_link = { Cluster.Switch.latency = Sim.Units.us 2; tx = Sim.Units.ns 100 }
let uplink = { Cluster.Switch.latency = Sim.Units.ns 500; tx = Sim.Units.ns 60 }
let probe_period = Sim.Units.us 500
let handler_time = Sim.Units.ns 500
let horizon = Sim.Units.ms 10
let sweep_drain = Sim.Units.ms 10
let rates = [ 200_000.; 600_000. ] (* rack-wide offered load *)

(* ---------- one rack instance ---------- *)

type rack = {
  fabric : Cluster.Fabric.t;
  control : Cluster.Control.t;
  client : Harness.Client.t;
  latencies : Sim.Histogram.t;
  servers : Common.server array;
  handled : int array; (* per-host RPCs handled by the service *)
  alive : bool array; (* host-shard liveness flags (probe targets) *)
  service_port : int;
  mutable unsteered : int; (* calls issued while no host was steerable *)
  mutable resteered : int; (* retransmits moved off a dead host *)
  (* failure timeline, recorded by control-plane callbacks *)
  mutable dead_at : (int * Sim.Units.time) list;
  mutable alive_at : (int * Sim.Units.time) list;
  mutable steered_at_death : int array;
  mutable steered_at_rereg : int array;
  chaos : Fault.Rack_chaos.t option; (* armed cluster fault driver (E19) *)
  leases : Cluster.Control.Worker_lease.t option array;
      (* per-host master leases, installed only when chaos is armed *)
}

(* Build N Lauberhorn hosts on a fabric, register them with the master,
   and wire a steering client behind the uplink. Deterministic: all
   cross-shard traffic rides Fabric posts.

   [obs], when given, arms the cross-fabric tracing plane (E18): the
   tracer lives on the master shard and records the client-side chain —
   uplink wire, switch ingress/crossbar/egress, the wire to the host —
   then skips over the interval the host's own stack tracer covers
   (every host tracer is enabled and records against the same trace id,
   carried in the frames' Wire_format context extension) and resumes on
   the reply path. Obs.Stitch reassembles the per-plane chains into one
   causal tree per RPC whose stages tile [send, reply] exactly. All
   emission happens on the owning shard (host tracers on host shards,
   the master tracer on master-shard events only), so arming changes no
   timing and breaks no determinism.

   [domains] is a leftover label: the rack runs in one domain, and any
   other value is refused. *)
let make_rack ?domains ?obs ?fault ?metrics ~hosts () =
  (match domains with
  | None | Some 1 -> ()
  | Some d ->
      invalid_arg
        (Printf.sprintf "Rack.make_rack: %d domains (only 1 is supported)" d));
  let fabric = Cluster.Fabric.create ~host_link ~uplink ?metrics ~hosts () in
  let master = Cluster.Fabric.master_engine fabric in
  let setup = Workload.Scenario.echo_fleet ~n:1 ~handler_time () in
  let service_port = Workload.Scenario.port_of setup ~service_idx:0 in
  let handled = Array.make hosts 0 in
  let alive = Array.make hosts true in
  let servers =
    Array.init hosts (fun h ->
        let server =
          Common.make_server ~ncores:4 ~max_workers:3
            ~engine:(Cluster.Fabric.host_engine fabric h)
            ~egress:(Cluster.Fabric.host_egress fabric h)
            (Common.Lauberhorn
               (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
            setup
        in
        (match server.Common.lauberhorn with
        | Some s ->
            Lauberhorn.Stack.set_address s
              (Cluster.Fabric.host_endpoint fabric h ~port:service_port);
            Lauberhorn.Stack.on_handled s (fun () ->
                handled.(h) <- handled.(h) + 1);
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
    Cluster.Control.create master ~hosts ~probe_period
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
            r.dead_at <- (host, Sim.Engine.now master) :: r.dead_at;
            r.steered_at_death <- Cluster.Control.steered r.control
        | None -> ())
      ~on_alive:(fun ~host ->
        match !rack_ref with
        | Some r ->
            r.alive_at <- (host, Sim.Engine.now master) :: r.alive_at;
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
      let decode frame = Rpc.Wire_format.decode frame.Net.Frame.payload in
      Cluster.Switch.set_hooks sw
        (Some
           {
             Cluster.Switch.on_ingress =
               (fun ~port ~time frame ->
                 match decode frame with
                 | Error _ -> ()
                 | Ok m ->
                     let rpc = m.Rpc.Wire_format.rpc_id in
                     if Rpc.Wire_format.is_request m then begin
                       if port = uplink_port then
                         Obs.Tracer.stage tr ~rpc ~track:tc
                           ~name:"uplink_wire" time
                     end
                     else if port < uplink_port then begin
                       (* the interval since the cursor belongs to the
                          serving host's own tracer: skip to the
                          instant the reply left the host, then charge
                          the host wire *)
                       Obs.Tracer.skip_to tr ~rpc (time - lat port);
                       Obs.Tracer.stage tr ~rpc ~track:tc
                         ~name:"wire_from_host" time
                     end);
             on_forward =
               (fun ~port:_ ~dst:_ ~time frame ->
                 match decode frame with
                 | Error _ -> ()
                 | Ok m ->
                     let rpc = m.Rpc.Wire_format.rpc_id in
                     let name =
                       if Rpc.Wire_format.is_request m then "switch_rx"
                       else "switch_rx_rsp"
                     in
                     Obs.Tracer.stage tr ~rpc ~track:tc ~name time);
             on_transmit =
               (fun ~port ~time frame ->
                 match decode frame with
                 | Error _ -> ()
                 | Ok m ->
                     let rpc = m.Rpc.Wire_format.rpc_id in
                     if Rpc.Wire_format.is_request m then begin
                       if port < uplink_port then begin
                         Obs.Tracer.stage tr ~rpc ~track:tc ~name:"switch_tx"
                           time;
                         Obs.Tracer.stage_until tr ~rpc ~track:tc
                           ~name:"wire_to_host" ~stop:(time + lat port)
                       end
                     end
                     else if port = uplink_port then begin
                       Obs.Tracer.stage tr ~rpc ~track:tc
                         ~name:"switch_tx_rsp" time;
                       Obs.Tracer.stage_until tr ~rpc ~track:tc
                         ~name:"uplink_back" ~stop:(time + lat uplink_port)
                     end);
           }));
  (* The steering send path: pin each rpc_id to a balancer-picked host
     at first transmission; a retransmit re-pins only if the master now
     believes the pinned host is dead (the LB resets the connection).
     The frame is re-addressed to the host's own endpoint, which is
     what the switch routes on. *)
  (* Keyed by the client's continuation slot (the low bits of the
     rpc_id), which the client recycles when a call completes or is
     abandoned — so the table is bounded by peak outstanding calls, not
     total calls issued, and an hours-long soak holds constant memory.
     The full rpc_id stored alongside disambiguates a recycled slot: a
     stale entry steers exactly like a missing one. *)
  let pins : (int, int64 * int) Hashtbl.t = Hashtbl.create 4096 in
  let pin_key id = Int64.to_int (Int64.logand id 0xF_FFFFL) in
  let send frame =
    match Rpc.Wire_format.decode frame.Net.Frame.payload with
    | Error _ -> ()
    | Ok msg -> (
        let r = match !rack_ref with Some r -> r | None -> assert false in
        let rpc_id = msg.Rpc.Wire_format.rpc_id in
        let target =
          match Hashtbl.find_opt pins (pin_key rpc_id) with
          | Some (id, h)
            when id = rpc_id && Cluster.Control.alive r.control ~host:h ->
              Some h
          | Some (id, _) when id = rpc_id ->
              (* pinned host died: re-steer the retry *)
              let p = Cluster.Control.pick r.control in
              (match p with
              | Some h ->
                  r.resteered <- r.resteered + 1;
                  Hashtbl.replace pins (pin_key rpc_id) (rpc_id, h)
              | None -> ());
              p
          | Some _ | None ->
              (* first transmission (or a slot recycled from a finished
                 call, which is the same thing) *)
              let p = Cluster.Control.pick r.control in
              (match p with
              | Some h -> Hashtbl.replace pins (pin_key rpc_id) (rpc_id, h)
              | None -> r.unsteered <- r.unsteered + 1);
              p
        in
        match target with
        | None -> () (* counted; the retry timer will try again *)
        | Some h ->
            let payload =
              match obs with
              | None -> frame.Net.Frame.payload
              | Some tr ->
                  (* open the causal root at first transmission and
                     carry the trace context inside the frame, across
                     the switch, to the serving host's tracer *)
                  let now = Sim.Engine.now master in
                  if not (Obs.Tracer.is_open tr ~rpc:rpc_id) then
                    Obs.Tracer.rpc_begin tr ~rpc:rpc_id
                      ~track:(Obs.Tracer.track tr "client")
                      now;
                  let parent =
                    match Obs.Tracer.root_of tr ~rpc:rpc_id with
                    | Some r -> r
                    | None -> 0
                  in
                  Rpc.Wire_format.encode
                    (Rpc.Wire_format.with_ctx msg
                       (Some
                          (Obs.Context.to_bytes
                             {
                               Obs.Context.trace = rpc_id;
                               parent;
                               origin = uplink_port;
                             })))
            in
            let dst =
              Cluster.Fabric.host_endpoint fabric h
                ~port:frame.Net.Frame.udp.Net.Udp.dst_port
            in
            Cluster.Fabric.uplink_send fabric
              (Net.Frame.make
                 ~src:(Net.Frame.src_endpoint frame)
                 ~dst payload))
  in
  let client = Harness.Client.create master ~send ?metrics () in
  let uplink_rx frame =
    (match obs with
    | None -> ()
    | Some tr -> (
        (* reply back at the client: close the causal root at the same
           instant the client's latency sample is taken *)
        match Rpc.Wire_format.decode frame.Net.Frame.payload with
        | Ok m when not (Rpc.Wire_format.is_request m) ->
            Obs.Tracer.rpc_end tr ~rpc:m.Rpc.Wire_format.rpc_id
              (Sim.Engine.now master)
        | Ok _ | Error _ -> ()));
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
          Cluster.Control.Worker_lease.create
            (Cluster.Fabric.host_engine fabric h)
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
      latencies = Sim.Histogram.create ();
      servers;
      handled;
      alive;
      service_port;
      unsteered = 0;
      resteered = 0;
      dead_at = [];
      alive_at = [];
      steered_at_death = Array.make hosts 0;
      steered_at_rereg = Array.make hosts 0;
      chaos;
      leases;
    }
  in
  rack_ref := Some rack;
  rack

let setup_arrivals ?(timeout = None) rack ~rate ~seed =
  let master = Cluster.Fabric.master_engine rack.fabric in
  let rng = Sim.Rng.create ~seed in
  let setup = rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  Workload.Arrivals.open_loop master rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      let t0 = Sim.Engine.now master in
      match timeout with
      | None ->
          Harness.Client.call rack.client ~service_id ~method_id:0
            ~port:rack.service_port
            (Rpc.Value.Blob (Bytes.make 64 'w'))
            (fun _ ->
              Sim.Histogram.record rack.latencies
                (Sim.Engine.now master - t0))
      | Some (timeout, retries) ->
          ignore
            (Harness.Client.call_id ~timeout ~retries ~backoff:1.5
               ~max_timeout:(Sim.Units.ms 2) ~jitter:0.25 rack.client
               ~service_id ~method_id:0 ~port:rack.service_port
               (Rpc.Value.Blob (Bytes.make 64 'w'))
               (fun _ ->
                 Sim.Histogram.record rack.latencies
                   (Sim.Engine.now master - t0))))

let finish rack =
  Array.iter
    (fun s ->
      s.Common.flush ();
      match s.Common.sanitize with
      | None -> ()
      | Some z -> Sanitize.finish z)
    rack.servers

let quantile rack p =
  if Harness.Client.completed rack.client = 0 then 0
  else Sim.Histogram.quantile rack.latencies p

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
         (Array.to_list (Array.map string_of_int rack.handled)));
    Printf.sprintf "steered [%s]"
      (String.concat ","
         (Array.to_list
            (Array.map string_of_int (Cluster.Control.steered rack.control))));
  ]

(* ---------- part (a): load sweep ---------- *)

let sweep_run ~rate =
  let rack = make_rack ~hosts:sweep_hosts () in
  setup_arrivals rack ~rate ~seed:1717;
  Cluster.Fabric.run rack.fabric ~until:(horizon + sweep_drain);
  finish rack;
  let windows = Cluster.Fabric.windows_run rack.fabric in
  let events = Cluster.Fabric.events_processed rack.fabric in
  (String.concat "\n  " (digest_lines rack), windows, events)

let run_sweep () =
  List.iter
    (fun rate ->
      Common.note "rack load %s over %d hosts, RR balancer, probes every %s"
        (Common.rate_str rate) sweep_hosts (Common.ns probe_period);
      let digest, windows, events = sweep_run ~rate in
      Common.note "windows=%d events/window=%d" windows
        (if windows = 0 then 0 else events / windows);
      Common.note "%s" ("rack:\n  " ^ digest))
    rates

let run_big () =
  let rack = make_rack ~hosts:big_hosts () in
  setup_arrivals rack ~rate:400_000. ~seed:1718;
  Cluster.Fabric.run rack.fabric ~until:(horizon + sweep_drain);
  finish rack;
  let windows = Cluster.Fabric.windows_run rack.fabric in
  let events = Cluster.Fabric.events_processed rack.fabric in
  Common.note "%d-host rack at %s: windows=%d events/window=%d"
    big_hosts (Common.rate_str 400_000.) windows
    (if windows = 0 then 0 else events / windows);
  Common.note "%s" ("rack:\n  " ^ String.concat "\n  " (digest_lines rack))

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
  let master = Cluster.Fabric.master_engine rack.fabric in
  let setup = rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  (* the kill and the respawn are host-local events on the victim's
     shard: the service process crashes where it stands, and the
     respawn re-registers with the master across the wire *)
  ignore
    (Sim.Engine.schedule_at
       (Cluster.Fabric.host_engine rack.fabric victim)
       ~at:kill_at
       (fun () ->
         rack.alive.(victim) <- false;
         rack.servers.(victim).Common.kill_service ~service_id));
  ignore
    (Sim.Engine.schedule_at
       (Cluster.Fabric.host_engine rack.fabric victim)
       ~at:respawn_at
       (fun () ->
         rack.servers.(victim).Common.restart_service ~service_id;
         rack.alive.(victim) <- true;
         Cluster.Fabric.post_to_master rack.fabric ~host:victim (fun () ->
             Cluster.Control.register rack.control ~host:victim)));
  (* a shedding window on another host: the admission-control signal
     reaches the master and steering reacts, no death involved *)
  ignore
    (Sim.Engine.schedule_at master ~at:shed_from (fun () ->
         Cluster.Control.set_shedding rack.control ~host:shed_host true));
  ignore
    (Sim.Engine.schedule_at master ~at:shed_until (fun () ->
         Cluster.Control.set_shedding rack.control ~host:shed_host false));
  let shed_steered_before = ref 0 in
  let shed_steered_during = ref 0 in
  ignore
    (Sim.Engine.schedule_at master ~at:shed_from (fun () ->
         shed_steered_before := (Cluster.Control.steered rack.control).(shed_host)));
  ignore
    (Sim.Engine.schedule_at master ~at:shed_until (fun () ->
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
  Common.note "%s" ("rack:\n  " ^ String.concat "\n  " (digest_lines rack));
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
    rack.resteered rack.unsteered;
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
