(* Tests for the rack-scale fault domain (PR 9): Fault.Plan cluster
   schedule units, the switch fault seams (wedge/brownout/partition),
   the fabric wire-fault seam, generation-tagged epochs and worker
   leases on the control plane, Obs.Online streaming moments, and the
   headline QCheck property — a rack under a random fault plan runs
   byte-identical twice, with global conservation (every call
   resolves, every lost frame counted). *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0
let us = Sim.Units.us
let ms = Sim.Units.ms

(* ---------- Fault.Plan units ---------- *)

let test_flap_grid () =
  (* jitter 0: a pure period grid — down exactly on
     [first_down + k*period, +down_for) *)
  let f = Fault.Plan.flap ~first_down:1000 ~up_for:1000 ~down_for:500 () in
  let down at = Fault.Plan.flap_down_at ~seed:42 f ~at in
  checkb "up before first_down" false (down 999);
  checkb "down at first edge" true (down 1000);
  checkb "down just before up-edge" true (down 1499);
  checkb "up after down_for" false (down 1500);
  checkb "down next cycle" true (down 2500);
  checkb "up mid next cycle" false (down 2400)

let test_flap_jitter_bounds () =
  let f =
    Fault.Plan.flap ~first_down:1000 ~up_for:1000 ~down_for:300 ~jitter:400 ()
  in
  let period = 1300 in
  for cycle = 0 to 19 do
    let e = Fault.Plan.flap_edge ~seed:7 f ~cycle in
    let base = 1000 + (cycle * period) in
    checkb "edge within jitter window" true (e >= base && e <= base + 400);
    checkb "down at its own edge" true
      (Fault.Plan.flap_down_at ~seed:7 f ~at:e);
    checkb "up just before the edge" false
      (Fault.Plan.flap_down_at ~seed:7 f ~at:(e - 1));
    if cycle > 0 then
      checkb "edges strictly increasing" true
        (e > Fault.Plan.flap_edge ~seed:7 f ~cycle:(cycle - 1))
  done

let test_plan_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  checkb "empty window rejected" true (raises (fun () ->
      Fault.Plan.window ~starts:10 ~until:10));
  checkb "jitter > up_for rejected" true (raises (fun () ->
      Fault.Plan.flap ~up_for:100 ~down_for:50 ~jitter:101 ()));
  checkb "negative flap host rejected" true (raises (fun () ->
      Fault.Plan.cluster
        ~flaps:[ (-1, Fault.Plan.flap ~up_for:100 ~down_for:50 ()) ]
        ()));
  checkb "count-triggered master rejected" true (raises (fun () ->
      Fault.Plan.cluster
        ~master:(Fault.Plan.server_fault ~crash_after_rpcs:10 ())
        ()));
  checkb "empty cluster is none" true
    (Fault.Plan.cluster_is_none Fault.Plan.no_cluster);
  checkb "Plan.none has no cluster faults" true
    (Fault.Plan.cluster_is_none Fault.Plan.none.Fault.Plan.cluster)

let test_plan_flap_down_scoped () =
  let p =
    Fault.Plan.make
      ~cluster:
        (Fault.Plan.cluster
           ~flaps:
             [ (1, Fault.Plan.flap ~first_down:100 ~up_for:200 ~down_for:50 ()) ]
           ())
      ()
  in
  checkb "flapped host goes down" true (Fault.Plan.flap_down p ~host:1 ~at:120);
  checkb "other hosts unaffected" false
    (Fault.Plan.flap_down p ~host:0 ~at:120)

(* ---------- switch fault seams (driven directly) ---------- *)

type arrival = { at : int; port : int; dst : int; id : int }

let dev_endpoint i =
  {
    Net.Frame.mac =
      Net.Mac_addr.of_int64 (Int64.of_int (0x02_00_00_00_09_00 + i));
    ip = Net.Ip_addr.of_int (0x0A000900 + i);
    port = 41_000 + i;
  }

let arrival_frame a =
  Net.Frame.make ~src:(dev_endpoint a.port)
    ~dst:{ (dev_endpoint a.dst) with Net.Frame.port = 50_000 + a.dst }
    (Bytes.of_string (Printf.sprintf "f%d" a.id))

let run_faulty_switch ?cap_in ?cap_out ?wedge ?brownout ?partition ~nports
    arrivals =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let sw =
    Cluster.Switch.create engine
      ~ports:
        (Array.init nports (fun _ ->
             { Cluster.Switch.latency = us 1; tx = Sim.Units.ns 100 }))
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
  (match wedge with Some w -> Cluster.Switch.set_port_wedge sw (Some w) | None -> ());
  (match brownout with Some b -> Cluster.Switch.set_brownout sw (Some b) | None -> ());
  (match partition with
  | Some p -> Cluster.Switch.set_partition sw (Some p)
  | None -> ());
  List.iter
    (fun a ->
      ignore
        (Sim.Engine.schedule_at engine ~at:a.at (fun () ->
             Cluster.Switch.ingress sw ~port:a.port (arrival_frame a))))
    arrivals;
  Sim.Engine.run engine ~until:(ms 50);
  (List.rev !log, Cluster.Switch.stats sw)

let frames_conserved (st : Cluster.Switch.stats) =
  st.Cluster.Switch.ingressed
  = st.Cluster.Switch.delivered + st.Cluster.Switch.drop_in
    + st.Cluster.Switch.drop_out + st.Cluster.Switch.unroutable
    + st.Cluster.Switch.port_drops + st.Cluster.Switch.partition_drops

let test_wedge_stalls_and_counts () =
  (* Port 1's transmitter is wedged over [2us, 8us): frames queue
     behind it, the overflow is a counted port-failure loss, and the
     queued ones drain only after the wedge lifts. *)
  let wedge ~port ~at =
    if port = 1 && at >= us 2 && at < us 8 then Some (us 8) else None
  in
  let arrivals =
    List.init 6 (fun i -> { at = us 3 + (i * 10); port = 0; dst = 1; id = i })
  in
  let log, st =
    run_faulty_switch ~cap_out:3 ~wedge ~nports:2 arrivals
  in
  checkb "some overflow hit the wedged port" true
    (st.Cluster.Switch.port_drops > 0);
  checki "no ordinary egress drops while wedged" 0 st.Cluster.Switch.drop_out;
  checkb "conserved" true (frames_conserved st);
  List.iter
    (fun (t, port, _) ->
      checki "all deliveries on port 1" 1 port;
      checkb "nothing delivered before the wedge lifts" true (t >= us 8))
    log

let test_wedge_defers_single_frame () =
  let wedge ~port ~at =
    if port = 1 && at >= 0 && at < us 5 then Some (us 5) else None
  in
  let log, st =
    run_faulty_switch ~wedge ~nports:2
      [ { at = us 1; port = 0; dst = 1; id = 0 } ]
  in
  checki "delivered" 1 st.Cluster.Switch.delivered;
  checki "no drops" 0 st.Cluster.Switch.port_drops;
  match log with
  | [ (t, _, _) ] -> checkb "transmit deferred past the wedge" true (t >= us 5)
  | _ -> Alcotest.fail "expected one delivery"

let test_brownout_defers_service () =
  (* The crossbar stalls over [1us, 6us): a frame arriving inside the
     window is serviced only after it ends. *)
  let brownout ~at = if at >= us 1 && at < us 6 then Some (us 6) else None in
  let log, st =
    run_faulty_switch ~brownout ~nports:2
      [ { at = us 2; port = 0; dst = 1; id = 0 } ]
  in
  checki "delivered" 1 st.Cluster.Switch.delivered;
  checkb "conserved" true (frames_conserved st);
  match log with
  | [ (t, _, _) ] ->
      checkb "service start pushed past the brownout" true (t >= us 6)
  | _ -> Alcotest.fail "expected one delivery"

let test_partition_cuts_at_crossbar () =
  (* (0 -> 1) cut over [0, 10us): in-window frames die with a counted
     loss, the reverse direction and later frames pass. *)
  let partition ~src ~dst ~at = src = 0 && dst = 1 && at < us 10 in
  let log, st =
    run_faulty_switch ~partition ~nports:2
      [
        { at = us 1; port = 0; dst = 1; id = 0 };
        { at = us 2; port = 1; dst = 0; id = 1 };
        { at = us 12; port = 0; dst = 1; id = 2 };
      ]
  in
  checki "one partition drop" 1 st.Cluster.Switch.partition_drops;
  checki "two delivered" 2 st.Cluster.Switch.delivered;
  checkb "conserved" true (frames_conserved st);
  checkb "cut frame absent from the log" true
    (not (List.exists (fun (_, _, p) -> String.equal p "f0") log))

(* ---------- fabric wire-fault seam ---------- *)

let test_wire_fault_eats_and_counts () =
  let fabric = Cluster.Fabric.create ~hosts:2 () in
  let reached = ref 0 in
  (* cut the master->host direction only *)
  Cluster.Fabric.set_link_fault fabric
    (Some (fun ~src ~dst:_ ~at:_ -> src >= 2));
  Cluster.Fabric.post_to_host fabric ~host:0 (fun () -> incr reached);
  Cluster.Fabric.run fabric ~until:(ms 1);
  checki "closure eaten at the wire" 0 !reached;
  checki "counted" 1 (Cluster.Fabric.link_drops_total fabric);
  (* clearing the seam restores delivery *)
  Cluster.Fabric.set_link_fault fabric None;
  Cluster.Fabric.post_to_host fabric ~host:0 (fun () -> incr reached);
  Cluster.Fabric.run fabric ~until:(ms 2);
  checki "delivered once cleared" 1 !reached;
  checki "no further drops" 1 (Cluster.Fabric.link_drops_total fabric)

(* ---------- control plane: epochs, crash/restart, leases ---------- *)

let test_epoch_minting_and_stale_rejection () =
  let engine = Sim.Engine.create () in
  let ctl =
    Cluster.Control.create engine ~hosts:2 ~probe_period:(us 500)
      ~probe:(fun ~host:_ -> ())
      ()
  in
  Cluster.Control.register ctl ~host:0;
  let e0 = Cluster.Control.epoch ctl ~host:0 in
  Cluster.Control.ack ~epoch:e0 ctl ~host:0;
  checki "current-epoch ack accepted" 1 (Cluster.Control.acks_received ctl);
  Cluster.Control.crash ctl;
  checkb "down after crash" false (Cluster.Control.up ctl);
  checki "pick answers nothing while down" (-1) (Cluster.Control.pick ctl);
  Cluster.Control.register ctl ~host:1 (* falls on the floor *);
  Cluster.Control.restart ctl;
  checki "generation bumped" 2 (Cluster.Control.master_generation ctl);
  checki "restart counted" 1 (Cluster.Control.master_restarts ctl);
  checkb "register while down was ignored" false
    (Cluster.Control.alive ctl ~host:1);
  (* the worker re-registers under the new generation; its pre-crash
     epoch must no longer be accepted *)
  Cluster.Control.register ctl ~host:0;
  let e1 = Cluster.Control.epoch ctl ~host:0 in
  checkb "new generation mints a new epoch" true (e1 <> e0);
  Cluster.Control.ack ~epoch:e0 ctl ~host:0;
  checki "stale ack rejected" 1 (Cluster.Control.epoch_rejections ctl);
  checki "and not counted as received" 1 (Cluster.Control.acks_received ctl);
  Cluster.Control.ack ~epoch:e1 ctl ~host:0;
  checki "fresh ack accepted" 2 (Cluster.Control.acks_received ctl)

let test_reregister_mints_fresh_epoch () =
  let engine = Sim.Engine.create () in
  let ctl =
    Cluster.Control.create engine ~hosts:1 ~probe_period:(us 500)
      ~probe:(fun ~host:_ -> ())
      ()
  in
  Cluster.Control.register ctl ~host:0;
  let e0 = Cluster.Control.epoch ctl ~host:0 in
  Cluster.Control.register ctl ~host:0;
  checkb "same-generation re-register changes the epoch" true
    (Cluster.Control.epoch ctl ~host:0 <> e0)

let test_worker_lease () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  let l =
    Cluster.Control.Worker_lease.create engine ~timeout:(us 100)
      ~re_register:(fun () -> fired := Sim.Engine.now engine :: !fired)
  in
  Cluster.Control.Worker_lease.start l;
  (* a probe at 150us renews the lease, so the 200us check stays
     quiet; silence after that expires it again *)
  ignore
    (Sim.Engine.schedule_at engine ~at:(us 150) (fun () ->
         Cluster.Control.Worker_lease.saw_probe l));
  Sim.Engine.run engine ~until:(us 460);
  let fires = List.rev !fired in
  checkb "expired at the first silent check" true
    (List.exists (fun t -> t = us 100) fires);
  checkb "renewed lease survives the next check" true
    (not (List.exists (fun t -> t = us 200) fires));
  checkb "silence expires it again" true
    (List.exists (fun t -> t >= us 300) fires);
  checki "every fire counted" (List.length fires)
    (Cluster.Control.Worker_lease.re_registrations l);
  Cluster.Control.Worker_lease.stop l;
  let n = Cluster.Control.Worker_lease.re_registrations l in
  Sim.Engine.run engine ~until:(ms 2);
  checki "stopped lease stays parked" n
    (Cluster.Control.Worker_lease.re_registrations l)

(* ---------- Obs.Online streaming moments ---------- *)

let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_online_moments () =
  let s = Obs.Online.create () in
  List.iter (Obs.Online.record s) [ 5; 7; 9 ];
  checki "count" 3 (Obs.Online.count s);
  checkf "mean" 7.0 (Obs.Online.mean s);
  checkf "unbiased variance" 4.0 (Obs.Online.variance s);
  checkf "stddev" 2.0 (Obs.Online.stddev s);
  checki "min" 5 (Obs.Online.min_value s);
  checki "max" 9 (Obs.Online.max_value s);
  let e = Obs.Online.create () in
  checki "empty count" 0 (Obs.Online.count e);
  checkf "empty mean" 0.0 (Obs.Online.mean e);
  checkb "empty min raises" true
    (try Obs.Online.min_value e |> ignore; false
     with Invalid_argument _ -> true)

(* ---------- chaos racks: determinism + conservation ---------- *)

let chaos_hosts = 4
let chaos_horizon = us 2500
let chaos_drain = ms 10

(* Run a rack under [plan] and distill everything observable into one
   string: the E17 digest, call/frame conservation, and the merged
   metrics snapshot. Any behavioural difference between two runs
   surfaces as a digest mismatch. *)
let run_chaos_rack ~plan ~seed () =
  let metrics = Obs.Metrics.create () in
  let rack =
    Experiments.Rack.make_rack ~fault:plan ~metrics ~hosts:chaos_hosts ()
  in
  let fabric = rack.Experiments.Rack.fabric in
  let engine = Cluster.Fabric.engine fabric in
  let setup = rack.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:120_000.
    ~until:chaos_horizon (fun ~seq:_ ->
      ignore
        (Harness.Client.call_id ~timeout:(us 200) ~retries:5 ~backoff:1.5
           ~max_timeout:(us 800) ~jitter:0.25 rack.Experiments.Rack.client
           ~service_id ~method_id:0 ~port:rack.Experiments.Rack.service_port
           (Rpc.Value.Blob (Bytes.make 32 'c'))
           ignore));
  Cluster.Fabric.run fabric ~until:(chaos_horizon + chaos_drain);
  Experiments.Rack.finish rack;
  let c = rack.Experiments.Rack.client in
  let st = Cluster.Switch.stats (Cluster.Fabric.switch fabric) in
  let calls_conserved =
    Harness.Client.completed c + Harness.Client.abandoned c
    + Harness.Client.errors c
    = Harness.Client.sent c
    && Harness.Client.outstanding c = 0
  in
  let conserved =
    calls_conserved && frames_conserved st
    && Cluster.Fabric.undeliverable fabric = 0
  in
  let digest =
    String.concat "\n"
      (Experiments.Rack.digest_lines rack
      @ [
          Printf.sprintf "conserved=%b link_drops=%d re_reg=%d gen=%d"
            conserved
            (Cluster.Fabric.link_drops_total fabric)
            (Array.fold_left
               (fun acc l ->
                 match l with
                 | Some l ->
                     acc + Cluster.Control.Worker_lease.re_registrations l
                 | None -> acc)
               0 rack.Experiments.Rack.leases)
            (Cluster.Control.master_generation rack.Experiments.Rack.control);
        ]
      @ List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Obs.Metrics.to_list ~keep_zero:true metrics))
  in
  (digest, conserved)

(* seeded regression: a master crash wipes the registration table; the
   workers' leases notice the probe silence and re-register under the
   new generation with no master cooperation *)
let test_master_restart_recovery () =
  let plan =
    Fault.Plan.make
      ~cluster:
        (Fault.Plan.cluster
           ~master:
             (Fault.Plan.server_fault ~crash_at:(us 1000) ~downtime:(us 400)
                ~restart:true ())
           ())
      ()
  in
  let digest, conserved = run_chaos_rack ~plan ~seed:4242 () in
  checkb "conserved through the restart" true conserved;
  checkb "generation bumped" true (contains ~needle:"gen=2" digest);
  (* every worker is steerable again by the end of the drain *)
  let metrics = Obs.Metrics.create () in
  let rack =
    Experiments.Rack.make_rack ~fault:plan ~metrics
      ~hosts:chaos_hosts ()
  in
  Cluster.Fabric.run rack.Experiments.Rack.fabric ~until:(ms 8);
  for h = 0 to chaos_hosts - 1 do
    checkb "worker re-registered and alive" true
      (Cluster.Control.alive rack.Experiments.Rack.control ~host:h)
  done;
  checki "one restart" 1
    (Cluster.Control.master_restarts rack.Experiments.Rack.control);
  checkb "leases fired" true
    (Array.exists
       (fun l ->
         match l with
         | Some l -> Cluster.Control.Worker_lease.re_registrations l > 0
         | None -> false)
       rack.Experiments.Rack.leases)

(* seeded regression: the balancer stops steering to a host the master
   cannot see within two probe periods of the (asymmetric) partition *)
let test_partition_steering_bound () =
  let p_start = us 800 and p_end = us 2400 in
  let victim = 1 in
  let plan =
    Fault.Plan.make
      ~cluster:
        (Fault.Plan.cluster
           ~partitions:
             [
               Fault.Plan.partition ~srcs:[ Fault.Plan.Master ]
                 ~dsts:[ Fault.Plan.Host victim ]
                 ~span:(Fault.Plan.window ~starts:p_start ~until:p_end);
             ]
           ())
      ()
  in
  let metrics = Obs.Metrics.create () in
  let rack =
    Experiments.Rack.make_rack ~fault:plan ~metrics
      ~hosts:chaos_hosts ()
  in
  let fabric = rack.Experiments.Rack.fabric in
  let engine = Cluster.Fabric.engine fabric in
  let setup = rack.Experiments.Rack.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed:99 in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:120_000.
    ~until:chaos_horizon (fun ~seq:_ ->
      ignore
        (Harness.Client.call_id ~timeout:(us 200) ~retries:5 ~backoff:1.5
           ~max_timeout:(us 800) ~jitter:0.25 rack.Experiments.Rack.client
           ~service_id ~method_id:0 ~port:rack.Experiments.Rack.service_port
           (Rpc.Value.Blob (Bytes.make 32 'p'))
           (fun _ -> ())));
  let probe_period = Experiments.Rack.probe_period in
  let at_bound = ref (-1) and at_end = ref (-1) in
  ignore
    (Sim.Engine.schedule_at engine
       ~at:(p_start + (2 * probe_period))
       (fun () ->
         at_bound :=
           (Cluster.Control.steered rack.Experiments.Rack.control).(victim)));
  ignore
    (Sim.Engine.schedule_at engine ~at:p_end (fun () ->
         at_end :=
           (Cluster.Control.steered rack.Experiments.Rack.control).(victim)));
  Cluster.Fabric.run fabric ~until:(chaos_horizon + chaos_drain);
  Experiments.Rack.finish rack;
  checkb "victim was steered to before the cut" true (!at_bound > 0);
  checki "not steered past the detection bound" !at_bound !at_end;
  checkb "victim revives after the partition heals" true
    (Cluster.Control.alive rack.Experiments.Rack.control ~host:victim)

(* with Plan.none the fault path must be invisible: same digest as a
   rack built with no plan at all *)
let test_plan_none_is_identity () =
  let baseline, c0 = run_chaos_rack ~plan:Fault.Plan.none ~seed:1234 () in
  let metrics = Obs.Metrics.create () in
  let rack =
    Experiments.Rack.make_rack ~metrics ~hosts:chaos_hosts ()
  in
  checkb "no chaos driver armed" true
    (Option.is_none rack.Experiments.Rack.chaos);
  checkb "no leases installed" true
    (Array.for_all Option.is_none rack.Experiments.Rack.leases);
  ignore baseline;
  checkb "conserved" true c0

(* ---------- the QCheck fuzz ---------- *)

let plane_of i = if i < 0 then Fault.Plan.Master else Fault.Plan.Host i

let build_plan (flaps, wedges, brownouts, parts, master) =
  (* dedup flap hosts: last-writer-wins vs assoc-first must never race *)
  let seen = Hashtbl.create 4 in
  let flaps =
    List.filter
      (fun (h, _, _, _) ->
        if Hashtbl.mem seen h then false
        else begin
          Hashtbl.add seen h ();
          true
        end)
      flaps
  in
  Fault.Plan.make
    ~cluster:
      (Fault.Plan.cluster
         ~flaps:
           (List.map
              (fun (h, up, down, first) ->
                ( h,
                  Fault.Plan.flap ~first_down:(us first) ~up_for:(us up)
                    ~down_for:(us down) ~jitter:(us 30) () ))
              flaps)
         ~wedges:
           (List.map
              (fun (p, (a, b)) ->
                (p, Fault.Plan.window ~starts:(us a) ~until:(us b)))
              wedges)
         ~brownouts:
           (List.map
              (fun (a, b) -> Fault.Plan.window ~starts:(us a) ~until:(us b))
              brownouts)
         ~partitions:
           (List.map
              (fun (s, d, (a, b)) ->
                Fault.Plan.partition ~srcs:[ plane_of s ] ~dsts:[ plane_of d ]
                  ~span:(Fault.Plan.window ~starts:(us a) ~until:(us b)))
              parts)
         ~master:
           (match master with
           | Some (at, down) ->
               Fault.Plan.server_fault ~crash_at:(us at) ~downtime:(us down)
                 ~restart:true ()
           | None -> Fault.Plan.no_server_fault)
         ())
    ()

let gen_chaos_case =
  QCheck.Gen.(
    let window lo =
      pair (int_range lo (lo + 1200)) (int_range 80 400) >|= fun (a, len) ->
      (a, a + len)
    in
    let flap =
      int_range 0 (chaos_hosts - 1) >>= fun h ->
      int_range 300 1000 >>= fun up ->
      int_range 50 200 >>= fun down ->
      int_range 50 700 >|= fun first -> (h, up, down, first)
    in
    list_size (int_range 0 2) flap >>= fun flaps ->
    list_size (int_range 0 2)
      (pair (int_range 0 (chaos_hosts - 1)) (window 300))
    >>= fun wedges ->
    list_size (int_range 0 1) (window 500) >>= fun brownouts ->
    list_size (int_range 0 2)
      (int_range (-1) (chaos_hosts - 1) >>= fun s ->
       int_range (-1) (chaos_hosts - 1) >>= fun d ->
       window 400 >|= fun w -> (s, d, w))
    >>= fun parts ->
    option (pair (int_range 600 1400) (int_range 200 600)) >>= fun master ->
    int_range 0 1000 >|= fun seed ->
    ((flaps, wedges, brownouts, parts, master), seed))

let arb_chaos_case =
  QCheck.make
    ~print:(fun ((flaps, wedges, brownouts, parts, master), seed) ->
      Printf.sprintf "flaps=%s wedges=%s brownouts=%d parts=%s master=%s seed=%d"
        (String.concat ","
           (List.map
              (fun (h, up, down, first) ->
                Printf.sprintf "(h%d up%d down%d @%d)" h up down first)
              flaps))
        (String.concat ","
           (List.map
              (fun (p, (a, b)) -> Printf.sprintf "(p%d %d..%d)" p a b)
              wedges))
        (List.length brownouts)
        (String.concat ","
           (List.map
              (fun (s, d, (a, b)) -> Printf.sprintf "(%d>%d %d..%d)" s d a b)
              parts))
        (match master with
        | Some (at, down) -> Printf.sprintf "crash@%d+%d" at down
        | None -> "-")
        seed)
    gen_chaos_case

let qcheck_chaos_determinism =
  QCheck.Test.make ~count:10
    ~name:"chaos racks conserve and run byte-identical twice"
    arb_chaos_case
    (fun (raw, seed) ->
      let plan = build_plan raw in
      let digest, conserved = run_chaos_rack ~plan ~seed () in
      let digest', _ = run_chaos_rack ~plan ~seed () in
      conserved && String.equal digest digest')

let qsuite name t = (name, [ QCheck_alcotest.to_alcotest t ])

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          tc "flap grid (no jitter)" test_flap_grid;
          tc "flap jitter bounds" test_flap_jitter_bounds;
          tc "validation" test_plan_validation;
          tc "flap_down scoped to its host" test_plan_flap_down_scoped;
        ] );
      ( "switch seams",
        [
          tc "wedge stalls and counts" test_wedge_stalls_and_counts;
          tc "wedge defers a single frame" test_wedge_defers_single_frame;
          tc "brownout defers service" test_brownout_defers_service;
          tc "partition cuts at the crossbar" test_partition_cuts_at_crossbar;
        ] );
      ( "fabric seam",
        [ tc "wire fault eats and counts" test_wire_fault_eats_and_counts ] );
      ( "control plane",
        [
          tc "epochs + stale-ack rejection" test_epoch_minting_and_stale_rejection;
          tc "re-register mints fresh epoch" test_reregister_mints_fresh_epoch;
          tc "worker lease lifecycle" test_worker_lease;
        ] );
      ( "online stats",
        [
          tc "moments" test_online_moments;
        ] );
      ( "chaos rack",
        [
          tc "master restart recovery" test_master_restart_recovery;
          tc "partition steering bound" test_partition_steering_bound;
          tc "Plan.none is the identity" test_plan_none_is_identity;
        ] );
      qsuite "determinism fuzz" qcheck_chaos_determinism;
    ]
