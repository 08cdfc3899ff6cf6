(* E19: the chaos soak — every cluster fault class armed at once, for
   as long as you like, in constant memory.

   An 8-host rack (E17's topology) runs an open-loop RPC load while a
   Fault.Plan.cluster schedules, proportionally to the horizon: two
   flapping host links (seeded jitter), two wedged egress ports, two
   whole-switch brownouts, three asymmetric partitions (Master->host,
   host->Master, host->host), and one master crash/restart. Workers
   survive the restart through their leases (generation-tagged epochs
   reject stale acks); the balancer steers off a partitioned host
   within two probe periods.

   The horizon comes from E19_HORIZON_MS (default 24 ms — a few
   seconds of wall clock). Every per-RPC record lands in a
   constant-memory sink: the log-bucketed Sim.Histogram for quantiles,
   an Obs.Online Welford stream for exact moments, and the pin table
   is bounded by peak outstanding calls — so E19_HORIZON_MS=7_200_000
   (two hours, millions of RPCs) holds the same footprint.

   Its claim, E19.conservation: every issued call resolves (completed
   + abandoned + errors = sent, none outstanding) and every lost frame
   is counted at the choke point that ate it (wire cuts, crossbar
   partitions, wedged ports, bounded queues) — zero silent losses. A
   violation fails bin/figures.exe, which names the claim. The digest
   (client shape, switch stats, fault counters, the merged metrics
   snapshot) is machine-independent; scripts/gates.sh diffs it across a double
   run and with the sanitizers armed. *)

let hosts = 8
let rate = 400_000.
let probe_period = Rack.probe_period
let lease_timeout = 4 * probe_period

let horizon =
  match Sys.getenv_opt "E19_HORIZON_MS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some ms when ms > 0 -> Sim.Units.ms ms
      | Some _ | None -> invalid_arg "E19_HORIZON_MS: want a positive int")
  | None -> Sim.Units.ms 24

(* Retries stop well before this: timeout chain 250us * 1.5^k capped
   at 2 ms, 8 retries deep. *)
let drain = Sim.Units.ms 40

(* Fault windows are placed at fixed fractions of the horizon, so a
   2-hour soak exercises every class with the same relative shape as
   the 24 ms CI run. *)
let frac pct = horizon / 100 * pct

let plan () =
  let w a b = Fault.Plan.window ~starts:(frac a) ~until:(frac b) in
  Fault.Plan.make
    ~cluster:
      (Fault.Plan.cluster
         ~flaps:
           [
             ( 2,
               Fault.Plan.flap ~first_down:(frac 5) ~up_for:(frac 6)
                 ~down_for:(max (Sim.Units.us 100) (frac 1))
                 ~jitter:(Sim.Units.us 50) () );
             ( 6,
               Fault.Plan.flap ~first_down:(frac 12) ~up_for:(frac 9)
                 ~down_for:(max (Sim.Units.us 150) (frac 1))
                 ~jitter:(Sim.Units.us 80) () );
           ]
         ~wedges:[ (1, w 30 33); (4, w 55 57) ]
         ~brownouts:[ w 40 41; w 70 71 ]
         ~partitions:
           [
             (* the master loses sight of host 3; host 3's acks (and
                frames) still flow — the asymmetric case *)
             Fault.Plan.partition ~srcs:[ Fault.Plan.Master ]
               ~dsts:[ Fault.Plan.Host 3 ] ~span:(w 20 30);
             (* host 5 goes mute towards the master (acks and replies
                eaten), still hears probes — the other asymmetry *)
             Fault.Plan.partition
               ~srcs:[ Fault.Plan.Host 5 ]
               ~dsts:[ Fault.Plan.Master ] ~span:(w 60 70);
             (* a host->host crossbar cut: arms the switch partition
                seam (this north-south workload routes nothing between
                hosts, so its drops stay 0 — the seam itself is
                exercised by the unit tests) *)
             Fault.Plan.partition
               ~srcs:[ Fault.Plan.Host 0 ]
               ~dsts:[ Fault.Plan.Host 1 ] ~span:(w 10 90);
           ]
         ~master:
           (Fault.Plan.server_fault ~crash_at:(frac 45)
              ~downtime:(max (Sim.Units.ms 1) (frac 4))
              ~restart:true ())
         ())
    ()

let run () =
  Common.section "E19: chaos soak — all cluster fault classes, conserved";
  let plan = plan () in
  let metrics = Obs.Metrics.create () in
  let rack = Rack.make_rack ~fault:plan ~metrics ~hosts () in
  let engine = Cluster.Fabric.engine rack.Rack.fabric in
  let online = Obs.Online.create () in
  (* open-loop arrivals with a retrying client, as in E17's failure
     run, but against the soak's own horizon *)
  let rng = Sim.Rng.create ~seed:1920 in
  let setup = rack.Rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  Harness.Client.on_complete rack.Rack.client (fun ~rpc_id:_ ~latency ->
      Obs.Online.record online latency);
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      ignore
        (Harness.Client.call_id ~timeout:(Sim.Units.us 250) ~retries:8
           ~backoff:1.5 ~max_timeout:(Sim.Units.ms 2) ~jitter:0.25
           rack.Rack.client ~service_id ~method_id:0
           ~port:rack.Rack.service_port
           (Rpc.Value.Blob (Bytes.make 64 'w'))
           ignore));
  (* steering bound: once the Master->3 partition is two probe periods
     old the balancer must never pick host 3 again until the span ends *)
  let p3_start = frac 20 and p3_end = frac 30 in
  let steered_at_bound = ref 0 in
  let steered_at_heal = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine
       ~at:(p3_start + (2 * probe_period))
       (fun () ->
         steered_at_bound := (Cluster.Control.steered rack.Rack.control).(3)));
  ignore
    (Sim.Engine.schedule_at engine ~at:p3_end (fun () ->
         steered_at_heal := (Cluster.Control.steered rack.Rack.control).(3)));
  (* master-restart recovery: by two lease timeouts after the restart
     every worker has re-registered under the new generation *)
  let restart_at = frac 45 + max (Sim.Units.ms 1) (frac 4) in
  let alive_after_restart = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine
       ~at:(restart_at + (2 * lease_timeout))
       (fun () ->
         for h = 0 to hosts - 1 do
           if Cluster.Control.alive rack.Rack.control ~host:h then
             incr alive_after_restart
         done));
  Cluster.Fabric.run rack.Rack.fabric ~until:(horizon + drain);
  Rack.finish rack;
  (* ---- the digest ---- *)
  let c = rack.Rack.client in
  let ctl = rack.Rack.control in
  let st = Cluster.Switch.stats (Cluster.Fabric.switch rack.Rack.fabric) in
  Common.note "%d hosts at %s for %s (+%s drain), probes every %s, leases %s"
    hosts (Common.rate_str rate) (Common.ns horizon) (Common.ns drain)
    (Common.ns probe_period) (Common.ns lease_timeout);
  Common.note_lines "rack" (Rack.digest_lines rack);
  Common.note "latency online: %s"
    (Format.asprintf "%a" Obs.Online.pp_summary online);
  let re_registrations =
    Array.fold_left
      (fun acc l ->
        match l with
        | Some l -> acc + Cluster.Control.Worker_lease.re_registrations l
        | None -> acc)
      0 rack.Rack.leases
  in
  Common.note
    "faults: link_flaps=%d link_drops=%d port_drops=%d partition_drops=%d \
     master_restarts=%d generation=%d epoch_rejections=%d re_registrations=%d"
    (match rack.Rack.chaos with
    | Some ch -> Fault.Rack_chaos.link_flaps ch
    | None -> 0)
    (Cluster.Fabric.link_drops_total rack.Rack.fabric)
    st.Cluster.Switch.port_drops st.Cluster.Switch.partition_drops
    (Cluster.Control.master_restarts ctl)
    (Cluster.Control.master_generation ctl)
    (Cluster.Control.epoch_rejections ctl)
    re_registrations;
  Common.note
    "recovery: steered(3) frozen during partition: %b; workers alive %s \
     after master restart: %d/%d (re-registered under gen %d)"
    (!steered_at_heal = !steered_at_bound)
    (Common.ns (2 * lease_timeout))
    !alive_after_restart hosts
    (Cluster.Control.master_generation ctl);
  (* the merged, deterministically ordered metrics snapshot: switch +
     control + client + fault counters on one registry *)
  let snap = Obs.Metrics.to_list ~keep_zero:true metrics in
  Common.note "metrics (%d):" (List.length snap);
  List.iter (fun (k, v) -> Common.note "  %s=%d" k v) snap;
  (* ---- global conservation, or die ---- *)
  let sent = Harness.Client.sent c in
  let completed = Harness.Client.completed c in
  let abandoned = Harness.Client.abandoned c in
  let errors = Harness.Client.errors c in
  let outstanding = Harness.Client.outstanding c in
  let calls_conserved =
    completed + abandoned + errors = sent && outstanding = 0
  in
  (* every frame the switch admitted either left it or died in a
     counted bucket; nothing parked once the drain is over *)
  let frames_conserved =
    st.Cluster.Switch.ingressed
    = st.Cluster.Switch.delivered + st.Cluster.Switch.drop_in
      + st.Cluster.Switch.drop_out + st.Cluster.Switch.unroutable
      + st.Cluster.Switch.port_drops + st.Cluster.Switch.partition_drops
  in
  let silent_free = Cluster.Fabric.undeliverable rack.Rack.fabric = 0 in
  let conservation =
    {
      Common.id = "E19.conservation";
      holds = calls_conserved && frames_conserved && silent_free;
    }
  in
  Common.note
    "conservation: calls (done %d + abandoned %d + errors %d = sent %d, out \
     %d): %b; frames (in = out + counted drops): %b; undeliverable=0: %b%s"
    completed abandoned errors sent outstanding calls_conserved
    frames_conserved silent_free
    (Common.verdict conservation);
  Common.note
    "paper expectation: hours of faults and not one silent loss — every";
  Common.note
    "drop is a counter, every call resolves, and the whole transcript is";
  Common.note "byte-identical run to run and with the sanitizers armed.";
  [ conservation ]
