(* Tests for the rack layer (lib/cluster): the ToR switch's determinism
   and conservation contracts as QCheck properties, seeded control-plane
   lifecycle regressions, a full-stack kill-during-in-flight run on a
   two-host rack, and the rack-level determinism and frame-conservation
   fuzz. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- switch properties ---------- *)

(* A scripted arrival: at time [at], a frame enters on [port] destined
   for output [dst] (routed by UDP destination port), tagged [id]. *)
type arrival = { at : int; port : int; dst : int; id : int }

let dev_endpoint i =
  {
    Net.Frame.mac = Net.Mac_addr.of_int64 (Int64.of_int (0x02_00_00_00_07_00 + i));
    ip = Net.Ip_addr.of_int (0x0A000700 + i) (* 10.0.7.i *);
    port = 40_000 + i;
  }

let arrival_frame a =
  Net.Frame.make ~src:(dev_endpoint a.port)
    ~dst:{ (dev_endpoint a.dst) with Net.Frame.port = 50_000 + a.dst }
    (Bytes.of_string (Printf.sprintf "f%d" a.id))

(* Run a switch over the arrival script (injected in list order, which
   fixes the engine's tie-break seqs) and return the delivery log plus
   final stats. *)
let run_switch ?cap_in ?cap_out ~nports arrivals =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let sw =
    Cluster.Switch.create engine
      ~ports:
        (Array.init nports (fun i ->
             {
               Cluster.Switch.latency = Sim.Units.us 1;
               tx = Sim.Units.ns (100 + (10 * i));
             }))
      ?cap_in ?cap_out
      ~route:(fun f ->
        let p = f.Net.Frame.udp.Net.Udp.dst_port - 50_000 in
        if p >= 0 && p < nports then Some p else None)
      ~deliver:(fun ~port f ->
        log :=
          (Sim.Engine.now engine, port, Bytes.to_string f.Net.Frame.payload)
          :: !log)
      ()
  in
  List.iter
    (fun a ->
      ignore
        (Sim.Engine.schedule_at engine ~at:a.at (fun () ->
             Cluster.Switch.ingress sw ~port:a.port (arrival_frame a))))
    arrivals;
  Sim.Engine.run engine ~until:(Sim.Units.ms 50) (* long drain: idle *);
  (List.rev !log, Cluster.Switch.stats sw)

let pp_log log =
  String.concat ";"
    (List.map (fun (t, p, tag) -> Printf.sprintf "%d>%d@%s" t p tag) log)

let arb_arrivals =
  let gen =
    QCheck.Gen.(
      pair (int_range 2 5)
        (list_size (int_range 1 40)
           (tup3
              (map (fun x -> 10 + x) (int_bound 5_000))
              (int_bound 7) (int_bound 7))))
  in
  QCheck.make
    ~print:(fun (nports, l) ->
      Printf.sprintf "ports=%d %s" nports
        (String.concat " "
           (List.map (fun (at, p, d) -> Printf.sprintf "(%d:%d>%d)" at p d) l)))
    gen

(* A physical wire serializes: two frames cannot arrive at the same
   instant on the same port, and the (arrival-time, port) contract is
   only a function where that pair is unique. Bump colliding arrivals
   forward a nanosecond at a time — deterministically, so both runs of
   a case see the same script. *)
let arrivals_of (nports, raw) =
  let seen = Hashtbl.create 64 in
  List.mapi
    (fun i (at, p, d) ->
      let port = p mod nports in
      let at = ref at in
      while Hashtbl.mem seen (!at, port) do incr at done;
      Hashtbl.replace seen (!at, port) ();
      { at = !at; port; dst = d mod nports; id = i })
    raw

(* Delivery order is a pure function of (arrival time, ingress port):
   injecting the same script in reverse order — which flips every
   same-instant engine tie-break — must give the identical log. *)
let qcheck_switch_order_deterministic =
  QCheck.Test.make ~count:120
    ~name:"switch delivery order ignores injection order" arb_arrivals
    (fun case ->
      let arrivals = arrivals_of case in
      let nports = fst case in
      let log_fwd, _ = run_switch ~nports arrivals in
      let log_rev, _ = run_switch ~nports (List.rev arrivals) in
      String.equal (pp_log log_fwd) (pp_log log_rev))

(* With ample queues nothing drops: every frame is delivered exactly
   once (no loss, no duplication) and the drop counters stay zero. *)
let qcheck_switch_conserves_ample =
  QCheck.Test.make ~count:120 ~name:"switch conserves frames (ample queues)"
    arb_arrivals
    (fun case ->
      let arrivals = arrivals_of case in
      let log, st = run_switch ~nports:(fst case) ~cap_in:4096 ~cap_out:4096 arrivals in
      let delivered_tags = List.map (fun (_, _, tag) -> tag) log in
      let expect = List.map (fun a -> Printf.sprintf "f%d" a.id) arrivals in
      st.Cluster.Switch.drop_in = 0
      && st.Cluster.Switch.drop_out = 0
      && st.Cluster.Switch.unroutable = 0
      && st.Cluster.Switch.ingressed = List.length arrivals
      && st.Cluster.Switch.delivered = List.length arrivals
      && List.sort compare delivered_tags = List.sort compare expect)

(* With single-slot queues drops happen — but they are counted, never
   silent: ingressed = delivered + drop_in + drop_out after drain, and
   each surviving frame is still delivered exactly once. *)
let qcheck_switch_counts_drops =
  QCheck.Test.make ~count:120 ~name:"switch overflow drops are counted"
    arb_arrivals
    (fun case ->
      let arrivals = arrivals_of case in
      let log, st = run_switch ~nports:(fst case) ~cap_in:1 ~cap_out:1 arrivals in
      let tags = List.map (fun (_, _, tag) -> tag) log in
      st.Cluster.Switch.ingressed = List.length arrivals
      && st.Cluster.Switch.ingressed
         = st.Cluster.Switch.delivered + st.Cluster.Switch.drop_in
           + st.Cluster.Switch.drop_out
      && List.length (List.sort_uniq compare tags) = List.length tags)

(* Seeded regression pinning the tie-break itself: three frames enter
   at the same instant on ports 2, 1, 0 (injected in that order, all
   bound for port 0) and must come out 0, 1, 2. *)
let test_switch_tiebreak () =
  let arrivals =
    [
      { at = 100; port = 2; dst = 0; id = 2 };
      { at = 100; port = 1; dst = 0; id = 1 };
      { at = 100; port = 0; dst = 0; id = 0 };
    ]
  in
  let log, st = run_switch ~nports:3 arrivals in
  checki "all delivered" 3 st.Cluster.Switch.delivered;
  Alcotest.(check (list string))
    "ascending ingress-port order"
    [ "f0"; "f1"; "f2" ]
    (List.map (fun (_, _, tag) -> tag) log)

let test_switch_unroutable_counted () =
  let engine = Sim.Engine.create () in
  let delivered = ref 0 in
  let sw =
    Cluster.Switch.create engine
      ~ports:[| { Cluster.Switch.latency = 1000; tx = 100 } |]
      ~route:(fun _ -> None)
      ~deliver:(fun ~port:_ _ -> incr delivered)
      ()
  in
  ignore
    (Sim.Engine.schedule_at engine ~at:10 (fun () ->
         Cluster.Switch.ingress sw ~port:0
           (arrival_frame { at = 10; port = 0; dst = 0; id = 0 })));
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  let st = Cluster.Switch.stats sw in
  checki "nothing delivered" 0 !delivered;
  checki "unroutable counted" 1 st.Cluster.Switch.unroutable;
  checki "conservation" st.Cluster.Switch.ingressed
    (st.Cluster.Switch.delivered + st.Cluster.Switch.drop_in
   + st.Cluster.Switch.drop_out + st.Cluster.Switch.unroutable)

(* ---------- control-plane lifecycle regressions ---------- *)

(* A probe loop against scripted host liveness: probes are answered
   after [ack_delay] while the host's flag is up. *)
let make_ctl ?(hosts = 3) ?(probe_period = 1_000) ?(ack_delay = 100) engine =
  let alive = Array.make hosts true in
  let ctl_ref = ref None in
  let dead_log = ref [] in
  let alive_log = ref [] in
  let ctl =
    Cluster.Control.create engine ~hosts ~probe_period
      ~probe:(fun ~host ->
        if alive.(host) then
          ignore
            (Sim.Engine.schedule_after engine ~after:ack_delay (fun () ->
                 match !ctl_ref with
                 | Some c -> Cluster.Control.ack c ~host
                 | None -> ())))
      ~on_dead:(fun ~host ->
        dead_log := (host, Sim.Engine.now engine) :: !dead_log)
      ~on_alive:(fun ~host ->
        alive_log := (host, Sim.Engine.now engine) :: !alive_log)
      ()
  in
  ctl_ref := Some ctl;
  Array.iteri (fun h _ -> Cluster.Control.register ctl ~host:h) alive;
  Cluster.Control.start ctl;
  (ctl, alive, dead_log, alive_log)

let test_control_detects_within_one_period () =
  let engine = Sim.Engine.create () in
  let period = 1_000 in
  let ctl, alive, dead_log, _ = make_ctl ~probe_period:period engine in
  let kill_at = 3_500 in
  ignore
    (Sim.Engine.schedule_at engine ~at:kill_at (fun () -> alive.(1) <- false));
  Sim.Engine.run engine ~until:10_000;
  checkb "host 1 dead" false (Cluster.Control.alive ctl ~host:1);
  checkb "others alive" true
    (Cluster.Control.alive ctl ~host:0 && Cluster.Control.alive ctl ~host:2);
  checki "exactly one death" 1 (Cluster.Control.deaths ctl);
  (* the probe at 4000 goes unanswered; the reap at 5000 declares the
     death — one period after the first probe the crash ate *)
  let death_t = List.assoc 1 !dead_log in
  checkb "declared within one period of the eaten probe" true
    (death_t - kill_at <= 2 * period);
  checki "declared at the reap tick" 5_000 death_t

let test_control_reregister_restores_steering () =
  let engine = Sim.Engine.create () in
  let ctl, alive, _, alive_log = make_ctl ~hosts:2 engine in
  ignore (Sim.Engine.schedule_at engine ~at:1_500 (fun () -> alive.(0) <- false));
  Sim.Engine.run engine ~until:6_000;
  checkb "host 0 dead" false (Cluster.Control.alive ctl ~host:0);
  (* while dead, the balancer only ever picks host 1 *)
  for _ = 1 to 8 do
    Alcotest.(check (option int)) "steered around corpse" (Some 1)
      (Cluster.Control.pick ctl)
  done;
  (* an ack from beyond the grave must not resurrect *)
  let acks_before = Cluster.Control.acks_received ctl in
  Cluster.Control.ack ctl ~host:0;
  checkb "post-mortem ack ignored" false (Cluster.Control.alive ctl ~host:0);
  checki "post-mortem ack not counted" acks_before
    (Cluster.Control.acks_received ctl);
  (* respawn: re-register resurrects and steering resumes *)
  alive.(0) <- true;
  Cluster.Control.register ctl ~host:0;
  checkb "re-registered host alive" true (Cluster.Control.alive ctl ~host:0);
  checkb "on_alive fired for the respawn" true
    (List.exists (fun (h, t) -> h = 0 && t > 1_500) !alive_log);
  let picks = List.init 4 (fun _ -> Cluster.Control.pick ctl) in
  checkb "steering includes host 0 again" true
    (List.mem (Some 0) picks);
  Sim.Engine.run engine ~until:20_000;
  checkb "respawned host survives later probes" true
    (Cluster.Control.alive ctl ~host:0)

let test_control_shedding_steers_away () =
  let engine = Sim.Engine.create () in
  let ctl, _, _, _ = make_ctl ~hosts:3 engine in
  Cluster.Control.set_shedding ctl ~host:2 true;
  let picks = List.init 6 (fun _ -> Cluster.Control.pick ctl) in
  checkb "shedding host skipped" false (List.mem (Some 2) picks);
  checkb "shedding host still alive" true (Cluster.Control.alive ctl ~host:2);
  Cluster.Control.set_shedding ctl ~host:2 false;
  let picks = List.init 3 (fun _ -> Cluster.Control.pick ctl) in
  checkb "steering resumes after shed clears" true (List.mem (Some 2) picks)

(* ---------- full-stack: kill during in-flight RPCs ---------- *)

(* A two-host rack under load; host 0's service is killed mid-run and
   respawned. Every RPC must resolve — a reply, or an explicit
   err_dead reject converted into a re-steered retry — with zero
   silent losses anywhere on the path. Reuses E17's rack builder so
   the test exercises exactly what the experiment ships. *)
let test_rack_kill_during_inflight () =
  let r = Experiments.Rack.make_rack ~hosts:2 () in
  let victim = 0 in
  let setup = r.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let kill_at = Sim.Units.ms 2 in
  let respawn_at = Sim.Units.ms 5 in
  ignore
    (Sim.Engine.schedule_at
       (Cluster.Fabric.host_engine r.Experiments.Rack.fabric victim)
       ~at:kill_at
       (fun () ->
         r.Experiments.Rack.alive.(victim) <- false;
         r.Experiments.Rack.servers.(victim).Experiments.Common.kill_service
           ~service_id));
  ignore
    (Sim.Engine.schedule_at
       (Cluster.Fabric.host_engine r.Experiments.Rack.fabric victim)
       ~at:respawn_at
       (fun () ->
         r.Experiments.Rack.servers.(victim).Experiments.Common.restart_service
           ~service_id;
         r.Experiments.Rack.alive.(victim) <- true;
         Cluster.Fabric.post_to_master r.Experiments.Rack.fabric ~host:victim
           (fun () ->
             Cluster.Control.register r.Experiments.Rack.control ~host:victim)));
  Experiments.Rack.setup_arrivals r
    ~timeout:(Some (Sim.Units.us 200, 20))
    ~rate:300_000. ~seed:97;
  Cluster.Fabric.run r.Experiments.Rack.fabric
    ~until:(Sim.Units.ms 10 + Sim.Units.ms 30);
  Experiments.Rack.finish r;
  let c = r.Experiments.Rack.client in
  (* in-flight RPCs on the corpse came back as explicit rejects... *)
  checkb "err_dead rejects observed" true (Harness.Client.rejected c > 0);
  checkb "rejects became retries" true (Harness.Client.retransmits c > 0);
  (* ...and the ledger balances: nothing was silently lost *)
  checki "completed + abandoned = sent"
    (Harness.Client.sent c)
    (Harness.Client.completed c + Harness.Client.abandoned c);
  checki "none outstanding" 0 (Harness.Client.outstanding c);
  let st =
    Cluster.Switch.stats (Cluster.Fabric.switch r.Experiments.Rack.fabric)
  in
  checki "no switch ingress drops" 0 st.Cluster.Switch.drop_in;
  checki "no switch egress drops" 0 st.Cluster.Switch.drop_out;
  checki "no unroutable frames" 0 st.Cluster.Switch.unroutable;
  checki "no undeliverable frames" 0
    (Cluster.Fabric.undeliverable r.Experiments.Rack.fabric);
  (* the health check saw the death in time, and steering reacted *)
  let death_t =
    match List.assoc_opt victim (List.rev r.Experiments.Rack.dead_at) with
    | Some t -> t
    | None -> Alcotest.fail "death never detected"
  in
  checkb "dead within two probe periods of the kill" true
    (death_t - kill_at <= 2 * Experiments.Rack.probe_period);
  checki "victim never steered while dead" 0
    (r.Experiments.Rack.steered_at_rereg.(victim)
    - r.Experiments.Rack.steered_at_death.(victim));
  checkb "steering resumed after re-register" true
    ((Cluster.Control.steered r.Experiments.Rack.control).(victim)
    > r.Experiments.Rack.steered_at_rereg.(victim));
  checkb "victim alive at the end" true
    (Cluster.Control.alive r.Experiments.Rack.control ~host:victim)

(* ---------- rack determinism and frame conservation ---------- *)

(* A lightweight rack: echo devices (not full Lauberhorn hosts, to keep
   60 cases cheap) behind real Fabric wiring — the switch, the
   lookahead matrix and the cross-shard posts are exactly the
   production paths. Digest = uplink delivery log + per-host rx counts
   + switch stats; two runs must be byte-identical, and the switch
   must account for every frame it took in. *)
type shot = { t : int; dst : int }

let client_ep =
  {
    Net.Frame.mac = Net.Mac_addr.of_int64 0x02_00_00_00_99_01L;
    ip = Net.Ip_addr.of_int 0x0A000901 (* 10.0.9.1 *);
    port = 7_777;
  }

let frames_conserved (st : Cluster.Switch.stats) =
  st.Cluster.Switch.ingressed
  = st.Cluster.Switch.delivered + st.Cluster.Switch.drop_in
    + st.Cluster.Switch.drop_out + st.Cluster.Switch.unroutable
    + st.Cluster.Switch.port_drops + st.Cluster.Switch.partition_drops

let run_light_rack ~hosts ~links plan =
  let host_links =
    Array.map (fun l -> { Cluster.Switch.latency = l; tx = 100 }) links
  in
  let fabric = Cluster.Fabric.create ~host_links ~hosts () in
  let master = Cluster.Fabric.master_engine fabric in
  let log = ref [] in
  let rx = Array.make hosts 0 in
  for h = 0 to hosts - 1 do
    Cluster.Fabric.connect_host fabric h
      ~ingress:(fun frame ->
        rx.(h) <- rx.(h) + 1;
        let e = Cluster.Fabric.host_engine fabric h in
        ignore
          (Sim.Engine.schedule_after e
             ~after:(200 + (37 * h))
             (fun () ->
               Cluster.Fabric.host_egress fabric h
                 (Net.Frame.make
                    ~src:(Net.Frame.dst_endpoint frame)
                    ~dst:(Net.Frame.src_endpoint frame)
                    frame.Net.Frame.payload))))
  done;
  Cluster.Fabric.connect_uplink fabric (fun frame ->
      log :=
        (Sim.Engine.now master, Bytes.to_string frame.Net.Frame.payload)
        :: !log);
  List.iteri
    (fun i s ->
      ignore
        (Sim.Engine.schedule_at master ~at:s.t (fun () ->
             Cluster.Fabric.uplink_send fabric
               (Net.Frame.make ~src:client_ep
                  ~dst:
                    (Cluster.Fabric.host_endpoint fabric (s.dst mod hosts)
                       ~port:9_000)
                  (Bytes.of_string (Printf.sprintf "m%d" i))))))
    plan;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 2);
  let st = Cluster.Switch.stats (Cluster.Fabric.switch fabric) in
  ( Printf.sprintf "log=%s rx=%s in=%d out=%d dropi=%d dropo=%d undeliv=%d"
      (String.concat ";"
         (List.rev_map (fun (t, tag) -> Printf.sprintf "%d@%s" t tag) !log))
      (String.concat "," (Array.to_list (Array.map string_of_int rx)))
      st.Cluster.Switch.ingressed st.Cluster.Switch.delivered
      st.Cluster.Switch.drop_in st.Cluster.Switch.drop_out
      (Cluster.Fabric.undeliverable fabric),
    frames_conserved st )

let arb_rack_case =
  let gen =
    QCheck.Gen.(
      tup3 (int_range 2 4)
        (list_size (int_range 2 4)
           (oneofl [ 1_000; 2_000; 3_000; 5_000 ]))
        (list_size (int_range 1 30)
           (pair (map (fun x -> 10 + x) (int_bound 100_000)) (int_bound 7))))
  in
  QCheck.make
    ~print:(fun (hosts, links, raw) ->
      Printf.sprintf "hosts=%d links=[%s] shots=%s" hosts
        (String.concat "," (List.map string_of_int links))
        (String.concat " "
           (List.map (fun (t, d) -> Printf.sprintf "(%d>%d)" t d) raw)))
    gen

let qcheck_rack_determinism =
  QCheck.Test.make ~count:60
    ~name:"rack runs byte-identical twice and conserve switch frames"
    arb_rack_case
    (fun (hosts, link_list, raw) ->
      let links =
        Array.init hosts (fun h ->
            List.nth link_list (h mod List.length link_list))
      in
      let plan = List.map (fun (t, dst) -> { t; dst }) raw in
      let digest, conserved = run_light_rack ~hosts ~links plan in
      let digest', _ = run_light_rack ~hosts ~links plan in
      conserved && String.equal digest digest')

(* ---------- cross-shard span stitching (E18's invariant) ---------- *)

(* A traced full-stack rack: Lauberhorn hosts behind the switch, the
   tracing plane armed, a handful of steered RPCs fired from the
   uplink at seeded times. Returns whether every completed RPC's
   stitched stage chain tiles its measured latency exactly. *)
let run_traced_rack ~hosts ~n_rpcs ~seed =
  let obs = Obs.Tracer.create () in
  let rack = Experiments.Rack.make_rack ~obs ~hosts () in
  let fabric = rack.Experiments.Rack.fabric in
  let master = Cluster.Fabric.master_engine fabric in
  let setup = rack.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed in
  let completions = ref [] in
  for _ = 1 to n_rpcs do
    (* past the registration window, spread over ~1 ms *)
    let at = Sim.Units.us 50 + Sim.Rng.int rng ~bound:(Sim.Units.ms 1) in
    ignore
      (Sim.Engine.schedule_at master ~at (fun () ->
           let t0 = Sim.Engine.now master in
           let id = ref 0L in
           id :=
             Harness.Client.call_id rack.Experiments.Rack.client ~service_id
               ~method_id:0 ~port:rack.Experiments.Rack.service_port
               (Rpc.Value.Blob (Bytes.make 32 'q'))
               (fun _ ->
                 let latency = Sim.Engine.now master - t0 in
                 Sim.Histogram.record rack.Experiments.Rack.latencies latency;
                 completions := (!id, latency) :: !completions)))
  done;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 4);
  Experiments.Rack.finish rack;
  let parts =
    Array.to_list
      (Array.mapi
         (fun h s -> (Printf.sprintf "host%d" h, s.Experiments.Common.tracer))
         rack.Experiments.Rack.servers)
  in
  let stitches = Obs.Stitch.assemble ~root:obs ~parts in
  let verdict (id, latency) =
    match
      List.find_opt
        (fun (s : Obs.Stitch.t) -> Int64.equal s.Obs.Stitch.trace id)
        stitches
    with
    | Some s -> Obs.Stitch.exact s && s.Obs.Stitch.stage_sum = latency
    | None -> false
  in
  List.length !completions = n_rpcs && List.for_all verdict !completions

let arb_traced_case =
  QCheck.make
    ~print:(fun (hosts, n_rpcs, seed) ->
      Printf.sprintf "hosts=%d rpcs=%d seed=%d" hosts n_rpcs seed)
    QCheck.Gen.(tup3 (int_range 2 3) (int_range 1 8) (int_range 0 1000))

let qcheck_stitching_exact =
  QCheck.Test.make ~count:6 ~name:"traced racks stitch exactly"
    arb_traced_case
    (fun (hosts, n_rpcs, seed) -> run_traced_rack ~hosts ~n_rpcs ~seed)

let qsuite name t = (name, [ QCheck_alcotest.to_alcotest t ])

let () =
  Alcotest.run "cluster"
    [
      ( "switch",
        [
          Alcotest.test_case "same-instant tie-break by port" `Quick
            test_switch_tiebreak;
          Alcotest.test_case "unroutable counted" `Quick
            test_switch_unroutable_counted;
        ] );
      qsuite "switch order determinism" qcheck_switch_order_deterministic;
      qsuite "switch conservation" qcheck_switch_conserves_ample;
      qsuite "switch overflow accounting" qcheck_switch_counts_drops;
      ( "control",
        [
          Alcotest.test_case "death detected within one probe period" `Quick
            test_control_detects_within_one_period;
          Alcotest.test_case "re-register restores steering" `Quick
            test_control_reregister_restores_steering;
          Alcotest.test_case "shedding steers away" `Quick
            test_control_shedding_steers_away;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "kill during in-flight RPCs" `Quick
            test_rack_kill_during_inflight;
        ] );
      qsuite "rack determinism" qcheck_rack_determinism;
      qsuite "stitching" qcheck_stitching_exact;
    ]
