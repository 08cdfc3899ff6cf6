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
        let p = f.Net.Frame.dst.Net.Frame.port - 50_000 in
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

(* A reference model of the switch, on its own little event queue
   (ties broken by scheduling order, as in [Sim.Engine]): each
   instant's arrivals are collected into a batch and admitted by a
   stable sort on ingress port, ingress queues are FIFO and serve one
   frame per [fwd_delay] (300 ns), and each egress port serializes one
   frame per its [tx]. Destinations at or past [nports] are
   unroutable. It returns the switch's delivery log and counters. *)
let model_switch ~cap_in ~cap_out ~nports arrivals =
  let q = ref [] and seq = ref 0 and now = ref 0 in
  let before (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2) in
  let at time f =
    incr seq;
    q := List.merge before !q [ (time, !seq, f) ]
  in
  let log = ref [] and batch = ref [] and armed = ref false in
  let ingressed = ref 0 and delivered = ref 0 and drop_in = ref 0 in
  let drop_out = ref 0 and unroutable = ref 0 in
  let in_q = Array.init nports (fun _ -> Queue.create ()) in
  let busy = Array.make nports false and out_n = Array.make nports 0 in
  let free_at = Array.make nports 0 in
  let rec kick p =
    if (not busy.(p)) && not (Queue.is_empty in_q.(p)) then begin
      busy.(p) <- true;
      at (!now + 300) (fun () ->
          let a = Queue.pop in_q.(p) in
          if a.dst >= nports then incr unroutable
          else if out_n.(a.dst) >= cap_out then incr drop_out
          else begin
            out_n.(a.dst) <- out_n.(a.dst) + 1;
            let fin = max free_at.(a.dst) !now + 100 + (10 * a.dst) in
            free_at.(a.dst) <- fin;
            at fin (fun () ->
                out_n.(a.dst) <- out_n.(a.dst) - 1;
                incr delivered;
                log := (fin, a.dst, Printf.sprintf "f%d" a.id) :: !log)
          end;
          busy.(p) <- false;
          kick p)
    end
  in
  let sweep () =
    armed := false;
    let sorted =
      List.stable_sort (fun a b -> compare a.port b.port) (List.rev !batch)
    in
    batch := [];
    List.iter
      (fun a ->
        if Queue.length in_q.(a.port) >= cap_in then incr drop_in
        else (Queue.push a in_q.(a.port); kick a.port))
      sorted
  in
  List.iter
    (fun a ->
      at a.at (fun () ->
          incr ingressed;
          batch := a :: !batch;
          if not !armed then (armed := true; at !now sweep)))
    arrivals;
  let rec run () =
    match !q with
    | [] -> ()
    | (time, _, f) :: rest -> q := rest; now := time; f (); run ()
  in
  run ();
  ( List.rev !log,
    (!ingressed, !delivered, !drop_in, !drop_out, !unroutable) )

(* The switch agrees with the model, frame for frame and counter for
   counter, on scripts crowded with same-instant arrivals (a 50 ns time
   grid, several frames per port and instant) and queues of 1–3
   frames. *)
let qcheck_switch_matches_model =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 5) (int_range 1 3) (int_range 1 3)
        (list_size (int_range 1 60)
           (tup3 (map (fun x -> 10 + (50 * x)) (int_bound 30))
              (int_bound 7) (int_bound 7))))
  in
  let print (nports, cap_in, cap_out, l) =
    Printf.sprintf "ports=%d cap_in=%d cap_out=%d %s" nports cap_in cap_out
      (String.concat " "
         (List.map (fun (at, p, d) -> Printf.sprintf "(%d:%d>%d)" at p d) l))
  in
  QCheck.Test.make ~count:300 ~name:"switch matches its reference model"
    (QCheck.make ~print gen)
    (fun (nports, cap_in, cap_out, raw) ->
      let arrivals =
        List.mapi
          (fun i (at, p, d) ->
            { at; port = p mod nports; dst = d mod (nports + 1); id = i })
          raw
      in
      let log, st = run_switch ~cap_in ~cap_out ~nports arrivals in
      let model_log, model_stats =
        model_switch ~cap_in ~cap_out ~nports arrivals
      in
      String.equal (pp_log log) (pp_log model_log)
      && model_stats
         = Cluster.Switch.
             ( st.ingressed, st.delivered, st.drop_in, st.drop_out,
               st.unroutable ))

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
    checki "steered around corpse" 1 (Cluster.Control.pick ctl)
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
    (List.mem 0 picks);
  Sim.Engine.run engine ~until:20_000;
  checkb "respawned host survives later probes" true
    (Cluster.Control.alive ctl ~host:0)

let test_control_shedding_steers_away () =
  let engine = Sim.Engine.create () in
  let ctl, _, _, _ = make_ctl ~hosts:3 engine in
  Cluster.Control.set_shedding ctl ~host:2 true;
  let picks = List.init 6 (fun _ -> Cluster.Control.pick ctl) in
  checkb "shedding host skipped" false (List.mem 2 picks);
  checkb "shedding host still alive" true (Cluster.Control.alive ctl ~host:2);
  Cluster.Control.set_shedding ctl ~host:2 false;
  let picks = List.init 3 (fun _ -> Cluster.Control.pick ctl) in
  checkb "steering resumes after shed clears" true (List.mem 2 picks)

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
       (Cluster.Fabric.engine r.Experiments.Rack.fabric)
       ~at:kill_at
       (fun () ->
         r.Experiments.Rack.alive.(victim) <- false;
         r.Experiments.Rack.servers.(victim).Experiments.Common.kill_service
           ~service_id));
  ignore
    (Sim.Engine.schedule_at
       (Cluster.Fabric.engine r.Experiments.Rack.fabric)
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

(* ---------- the balancer addresses each request once ---------- *)

(* The client picks each transmission's host before it builds the
   frame, so every request a host receives is addressed to that host's
   own endpoint: first sends, and retries re-steered off a host whose
   service was killed. With every host dead, a call sends nothing and
   is counted as unsteered. *)
let test_rack_requests_addressed_once () =
  let r = Experiments.Rack.make_rack ~hosts:2 () in
  let fabric = r.Experiments.Rack.fabric in
  let port = r.Experiments.Rack.service_port in
  let seen = Hashtbl.create 256 in
  let misaddressed = ref 0 in
  Array.iteri
    (fun h s ->
      let ingress = s.Experiments.Common.driver.Harness.Driver.ingress in
      Cluster.Fabric.connect_host fabric h ~ingress:(fun f ->
          let p = f.Net.Frame.payload in
          if Rpc.Wire_format.is_request p then begin
            if f.Net.Frame.dst <> Cluster.Fabric.host_endpoint fabric h ~port
            then incr misaddressed;
            let id = Rpc.Wire_format.rpc_id p in
            let hosts = Option.value ~default:[] (Hashtbl.find_opt seen id) in
            if not (List.mem h hosts) then Hashtbl.replace seen id (h :: hosts)
          end;
          ingress f))
    r.Experiments.Rack.servers;
  let setup = r.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  ignore
    (Sim.Engine.schedule_at (Cluster.Fabric.engine fabric) ~at:(Sim.Units.ms 2)
       (fun () ->
         r.Experiments.Rack.alive.(0) <- false;
         r.Experiments.Rack.servers.(0).Experiments.Common.kill_service
           ~service_id));
  Experiments.Rack.setup_arrivals r
    ~timeout:(Some (Sim.Units.us 200, 20))
    ~rate:300_000. ~seed:97;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 40);
  Experiments.Rack.finish r;
  let c = r.Experiments.Rack.client in
  checki "every call resolved" (Harness.Client.sent c)
    (Harness.Client.completed c + Harness.Client.abandoned c);
  checki "every request addressed to the host that got it" 0 !misaddressed;
  checkb "requests reached both hosts" true
    (Hashtbl.fold (fun _ hs acc -> acc || List.mem 1 hs) seen false
    && Hashtbl.fold (fun _ hs acc -> acc || List.mem 0 hs) seen false);
  checkb "retries were re-steered" true
    (r.Experiments.Rack.steering.Experiments.Rack.resteered > 0);
  checkb "a re-steered call reached both hosts" true
    (Hashtbl.fold (fun _ hs acc -> acc || List.length hs = 2) seen false);
  (* every host dead: nothing crosses the uplink *)
  let r = Experiments.Rack.make_rack ~hosts:2 () in
  let fabric = r.Experiments.Rack.fabric in
  Array.iteri (fun h _ -> r.Experiments.Rack.alive.(h) <- false)
    r.Experiments.Rack.alive;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 2);
  checkb "every host dead" true
    (not
       (Cluster.Control.alive r.Experiments.Rack.control ~host:0
       || Cluster.Control.alive r.Experiments.Rack.control ~host:1));
  Harness.Client.call r.Experiments.Rack.client ~service_id ~method_id:0
    ~port:r.Experiments.Rack.service_port
    (Rpc.Value.Blob (Bytes.make 8 'd'))
    (fun _ -> Alcotest.fail "a call to a dead rack completed");
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 3);
  let st = Cluster.Switch.stats (Cluster.Fabric.switch fabric) in
  checki "nothing crossed the uplink" 0 st.Cluster.Switch.ingressed;
  checki "the call counted as unsteered" 1
    r.Experiments.Rack.steering.Experiments.Rack.unsteered;
  checki "the call still outstanding" 1
    (Harness.Client.outstanding r.Experiments.Rack.client);
  Experiments.Rack.finish r

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
  let engine = Cluster.Fabric.engine fabric in
  let log = ref [] in
  let rx = Array.make hosts 0 in
  for h = 0 to hosts - 1 do
    Cluster.Fabric.connect_host fabric h
      ~ingress:(fun frame ->
        rx.(h) <- rx.(h) + 1;
        ignore
          (Sim.Engine.schedule_after engine
             ~after:(200 + (37 * h))
             (fun () ->
               Cluster.Fabric.host_egress fabric h
                 (Net.Frame.make
                    ~src:frame.Net.Frame.dst ~dst:frame.Net.Frame.src
                    frame.Net.Frame.payload))))
  done;
  Cluster.Fabric.connect_uplink fabric (fun frame ->
      log :=
        (Sim.Engine.now engine, Bytes.to_string frame.Net.Frame.payload)
        :: !log);
  List.iteri
    (fun i s ->
      ignore
        (Sim.Engine.schedule_at engine ~at:s.t (fun () ->
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
  let engine = Cluster.Fabric.engine fabric in
  let setup = rack.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed in
  let completions = ref [] in
  for _ = 1 to n_rpcs do
    (* past the registration window, spread over ~1 ms *)
    let at = Sim.Units.us 50 + Sim.Rng.int rng ~bound:(Sim.Units.ms 1) in
    ignore
      (Sim.Engine.schedule_at engine ~at (fun () ->
           let t0 = Sim.Engine.now engine in
           let id = ref 0 in
           id :=
             Int64.to_int
               (Harness.Client.call_id rack.Experiments.Rack.client ~service_id
                  ~method_id:0 ~port:rack.Experiments.Rack.service_port
                  (Rpc.Value.Blob (Bytes.make 32 'q'))
                  (fun _ ->
                    let latency = Sim.Engine.now engine - t0 in
                    Sim.Histogram.record rack.Experiments.Rack.latencies latency;
                    completions := (!id, latency) :: !completions))))
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
        (fun (s : Obs.Stitch.t) -> Int.equal s.Obs.Stitch.trace id)
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

(* ---------- fabric wires under cut schedules ---------- *)

(* One wire's traffic: the [(time, tag)] of each frame put on it and of
   each frame it handed over, newest first. *)
type wire_log = {
  mutable put : (int * int) list;
  mutable got : (int * int) list;
}

(* The [src]→[dst] shard wire eats what would arrive in [[lo, hi)]. *)
type cut_window = { c_src : int; c_dst : int; lo : int; hi : int }

let tag_of frame = int_of_string (Bytes.to_string frame.Net.Frame.payload)

let cut_by windows ~src ~dst ~at =
  List.exists
    (fun c -> c.c_src = src && c.c_dst = dst && at >= c.lo && at < c.hi)
    windows

(* Send tagged frames [(at, src, dst)] (device [hosts] is the client
   behind the uplink) across a rack under the cut schedule. Every wire
   must hand over each frame put on it exactly once, one wire latency
   later and in the order they were put on, unless the schedule cut it;
   [link_drops_total] must count exactly the cut frames. *)
let wires_deliver_or_count ~lats ~windows sends =
  let hosts = Array.length lats in
  let uplink_latency = Sim.Units.ns 500 in
  let fabric =
    Cluster.Fabric.create
      ~host_links:
        (Array.map
           (fun latency -> { Cluster.Switch.latency; tx = Sim.Units.ns 100 })
           lats)
      ~uplink:{ Cluster.Switch.latency = uplink_latency; tx = Sim.Units.ns 50 }
      ~hosts ()
  in
  let engine = Cluster.Fabric.engine fabric in
  Cluster.Fabric.set_link_fault fabric (Some (cut_by windows));
  let logs () = Array.init (hosts + 1) (fun _ -> { put = []; got = [] }) in
  let inbound = logs () and outbound = logs () in
  let put log time frame = log.put <- (time, tag_of frame) :: log.put in
  let got log time frame = log.got <- (time, tag_of frame) :: log.got in
  Cluster.Switch.set_hooks (Cluster.Fabric.switch fabric)
    (Some
       {
         Cluster.Switch.on_ingress =
           (fun ~port ~time f -> got inbound.(port) time f);
         on_forward = (fun ~port:_ ~dst:_ ~time:_ _ -> ());
         on_transmit = (fun ~port ~time f -> put outbound.(port) time f);
       });
  for h = 0 to hosts - 1 do
    Cluster.Fabric.connect_host fabric h ~ingress:(fun f ->
        got outbound.(h) (Sim.Engine.now engine) f)
  done;
  Cluster.Fabric.connect_uplink fabric (fun f ->
      got outbound.(hosts) (Sim.Engine.now engine) f);
  let endpoint d =
    if d < hosts then Cluster.Fabric.host_endpoint fabric d ~port:7000
    else Harness.Traffic.client_endpoint ()
  in
  List.iteri
    (fun tag (at, src, dst) ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             let frame =
               Net.Frame.make ~src:(endpoint src) ~dst:(endpoint dst)
                 (Bytes.of_string (string_of_int tag))
             in
             put inbound.(src) (Sim.Engine.now engine) frame;
             if src < hosts then Cluster.Fabric.host_egress fabric src frame
             else Cluster.Fabric.uplink_send fabric frame)))
    sends;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 1);
  let cut = ref 0 in
  let wire_ok log ~cuttable ~src ~dst ~latency =
    let expected =
      List.filter_map
        (fun (time, tag) ->
          let at = time + latency in
          if cuttable && cut_by windows ~src ~dst ~at then begin
            incr cut;
            None
          end
          else Some (at, tag))
        (List.rev log.put)
    in
    expected = List.rev log.got
  in
  let ok = ref true in
  for p = 0 to hosts do
    (* the uplink's wires are outside the seam: no cut reaches them *)
    let cuttable = p < hosts in
    let latency = if cuttable then lats.(p) else uplink_latency in
    ok :=
      wire_ok inbound.(p) ~cuttable ~src:p ~dst:hosts ~latency
      && wire_ok outbound.(p) ~cuttable ~src:hosts ~dst:p ~latency
      && !ok
  done;
  (* the switch lost nothing, so every wire out of it carried traffic *)
  let transmitted =
    Array.fold_left (fun n log -> n + List.length log.put) 0 outbound
  in
  let reached = Array.fold_left (fun n log -> n + List.length log.got) 0 inbound in
  !ok
  && Cluster.Fabric.link_drops_total fabric = !cut
  && reached = transmitted

(* Control closures cross host [host]'s wire under the same seam: one
   posted at each of [times], each way, runs one link latency later
   unless the schedule cuts it, and each cut is counted once. The
   uplink's wires are outside the seam: with every host wire cut, a
   frame still crosses the uplink both ways, and no cut is counted. *)
let posts_cut_uplink_spared ~lats ~windows ~host times =
  let hosts = Array.length lats in
  let fabric =
    Cluster.Fabric.create
      ~host_links:
        (Array.map
           (fun latency -> { Cluster.Switch.latency; tx = Sim.Units.ns 100 })
           lats)
      ~hosts ()
  in
  let engine = Cluster.Fabric.engine fabric in
  Cluster.Fabric.set_link_fault fabric (Some (cut_by windows));
  let ran = ref [] in
  let ends = [ (host, hosts); (hosts, host) ] in
  List.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             List.iter
               (fun (src, _) ->
                 let arrive () = ran := (Sim.Engine.now engine, src) :: !ran in
                 if src = host then
                   Cluster.Fabric.post_to_master fabric ~host arrive
                 else Cluster.Fabric.post_to_host fabric ~host arrive)
               ends)))
    times;
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 1);
  let landed =
    List.concat_map
      (fun at ->
        List.map (fun (src, dst) -> (src, dst, at + lats.(host))) ends)
      times
  in
  let cut, kept =
    List.partition (fun (src, dst, at) -> cut_by windows ~src ~dst ~at) landed
  in
  let posts_ok =
    List.sort compare !ran
    = List.sort compare (List.map (fun (src, _, at) -> (at, src)) kept)
    && Cluster.Fabric.link_drops_total fabric = List.length cut
  in
  let drops = Cluster.Fabric.link_drops_total fabric in
  let replies = ref 0 in
  Cluster.Fabric.connect_uplink fabric (fun _ -> incr replies);
  Cluster.Fabric.set_link_fault fabric (Some (fun ~src:_ ~dst:_ ~at:_ -> true));
  let client = Harness.Traffic.client_endpoint () in
  Cluster.Fabric.uplink_send fabric
    (Net.Frame.make ~src:client ~dst:client (Bytes.of_string "0"));
  Cluster.Fabric.run fabric ~until:(Sim.Units.ms 2);
  posts_ok && !replies = 1 && Cluster.Fabric.link_drops_total fabric = drops

let arb_wire_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 4 >>= fun hosts ->
    let device = int_bound hosts in
    let window =
      map
        (fun (h, toward_switch, lo, len) ->
          let h = h mod hosts in
          if toward_switch then { c_src = h; c_dst = hosts; lo; hi = lo + len }
          else { c_src = hosts; c_dst = h; lo; hi = lo + len })
        (quad (int_bound 3) bool (int_bound 40_000) (int_bound 15_000))
    in
    quad
      (array_repeat hosts (map (fun k -> Sim.Units.ns (500 * k)) (int_range 1 8)))
      (list_size (int_bound 4) window)
      (list_size (int_range 1 40) (triple (int_bound 40_000) device device))
      (int_bound (hosts - 1))
  in
  QCheck.make
    ~print:(fun (lats, windows, sends, host) ->
      Printf.sprintf "lats=[%s] cuts=[%s] sends=[%s] host=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int lats)))
        (String.concat ";"
           (List.map
              (fun c -> Printf.sprintf "%d>%d@[%d,%d)" c.c_src c.c_dst c.lo c.hi)
              windows))
        (String.concat ";"
           (List.map (fun (at, s, d) -> Printf.sprintf "%d:%d>%d" at s d) sends))
        host)
    gen

let qcheck_wires =
  QCheck.Test.make ~count:200
    ~name:"each wire hands over every frame once, in order, or counts its cut"
    arb_wire_case
    (fun (lats, windows, sends, host) ->
      wires_deliver_or_count ~lats ~windows sends
      && posts_cut_uplink_spared ~lats ~windows ~host
           (List.map (fun (at, _, _) -> at) sends))

let qsuite name t = (name, [ QCheck_alcotest.to_alcotest t ])

(* ---------- the rack's allocation budget ---------- *)

(* Minor words per completed RPC of an 8-host rack whose client arms a
   retry timer per call (perfbench's [rack_retry] on a 3 ms horizon):
   the exact figure, measured once, plus 2%. It holds the switch's
   frame path, the client's per-call record and the steering send
   free of allocation that stands for no hardware. It took 334.8 when
   the budget was set (perfbench's rack_retry 335.3), and 331.8 once
   each stack resolved a request once (rack_retry 332.3). Before each
   host's NIC pipeline and transmit path kept their frames in recycled
   slots, requests were staged from their fields and each reply was
   encoded once into its wire payload, it took 331.8. Before random
   draws stopped boxing the generator's state and request frames
   stopped building a server endpoint record, it took 287.9 (rack_retry
   288.4). Before rpc ids were immediate ints, with each host's
   in-flight table in a [Sim.Int_table], it took 267.9 (rack_retry
   268.4). Before every fabric wire became a FIFO of frames with one
   arrival closure, the client's call records came from a pool and
   continuations, the balancer's pick and the request's client
   endpoint stopped boxing, it took 245.9 (rack_retry 246.4). Before
   the rack ran on one engine instead of conservative windows over one
   engine per host, and a CPU store stopped boxing its line in an
   option, it took 191.4 (rack_retry 190.5). Before a finished call
   cancelled its retry timer, whose record waited for it to fire, it
   took 146.5 (rack_retry 146.5). Before the client addressed each
   transmission once, an untyped reply stopped boxing an [Ok] and each
   host's in-flight entries became recycled slots, it took 144.9
   (rack_retry 146.3). Before a frame was its two endpoints and its
   payload, with no header records, it took 115.9 (rack_retry 117.3).
   Before the RPC codec read and wrote at offsets, with no cursor per
   encode or decode, it took 81.9 (rack_retry 83.3); it now takes
   71.9. *)
let rack_words_budget = 71.9 *. 1.02

let test_rack_allocation_budget () =
  let rack = Experiments.Rack.make_rack ~hosts:8 () in
  let fabric = rack.Experiments.Rack.fabric in
  let engine = Cluster.Fabric.engine fabric in
  let setup = rack.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let value = Rpc.Value.Blob (Bytes.make 64 'w') in
  let replies = ref 0 in
  let horizon = Sim.Units.ms 3 in
  Workload.Arrivals.open_loop engine (Sim.Rng.create ~seed:1)
    ~rate_per_s:1_600_000. ~until:horizon (fun ~seq:_ ->
      ignore
        (Harness.Client.call_id ~timeout:(Sim.Units.us 200) ~retries:8
           ~backoff:1.5 ~max_timeout:(Sim.Units.ms 2) ~jitter:0.25
           rack.Experiments.Rack.client ~service_id ~method_id:0
           ~port:rack.Experiments.Rack.service_port value (fun _ ->
             incr replies)));
  Gc.minor ();
  let before = Gc.minor_words () in
  Cluster.Fabric.run fabric ~until:(horizon + Sim.Units.ms 1);
  let words = Gc.minor_words () -. before in
  let client = rack.Experiments.Rack.client in
  let completed = Harness.Client.completed client in
  checki "every RPC completed" (Harness.Client.sent client) completed;
  checki "every reply reached its continuation" completed !replies;
  checkb "about 4.8k RPCs" true (completed > 4_500);
  let per_rpc = words /. float_of_int completed in
  checkb
    (Printf.sprintf "%.1f minor words per RPC <= %.1f" per_rpc
       rack_words_budget)
    true
    (per_rpc <= rack_words_budget)

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
      qsuite "switch reference model" qcheck_switch_matches_model;
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
          Alcotest.test_case "rack requests are addressed once" `Quick
            test_rack_requests_addressed_once;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "rack words per RPC budget" `Quick
            test_rack_allocation_budget;
        ] );
      qsuite "fabric wires" qcheck_wires;
      qsuite "rack determinism" qcheck_rack_determinism;
      qsuite "stitching" qcheck_stitching_exact;
    ]
