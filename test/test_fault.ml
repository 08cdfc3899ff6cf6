(* Chaos suite for the deterministic fault-injection layer (lib/fault)
   and the client retry machinery it exercises. Every property runs a
   full client -> lossy wire -> stack -> lossy wire -> client loop and
   checks invariants of the recovery structure the paper leans on
   (§5.1): loss is masked by retries, corruption never survives the
   checksums, duplicates are suppressed, and the whole thing is a
   deterministic function of the plan's seed. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let us = Sim.Units.us
let ms = Sim.Units.ms

module C = Experiments.Common
module P = Fault.Plan

let bypass = C.Bypass Coherence.Interconnect.pcie_enzian

(* A short lossy open-loop run: ~100 echo calls over a 2 ms window,
   with enough retries (and drain to let the last backoff chain play
   out) that any loss rate below the extreme should fully recover. *)
let lossy ?(flavour = bypass) ?(rate = 50_000.) ?(horizon = ms 2)
    ?(drain = ms 100) ?(timeout = us 100) ?(retries = 120) ?(backoff = 1.5)
    ?(max_timeout = us 500) ?(jitter = 0.25) ?(seed = 11) plan =
  (C.lossy_run ~ncores:4 ~rate ~horizon ~drain ~timeout ~retries ~backoff
     ~max_timeout ~jitter ~seed ~plan flavour)
    .C.m

(* --- scripted drops ------------------------------------------------ *)

(* The wire plan applies to both directions, so [drop_nth [1;2;3]]
   eats the first three requests AND the first three replies: the call
   needs seven attempts (six retransmits) before a reply survives, and
   the per-link scripted-drop counters account for every loss. *)
let test_scripted_drops () =
  let plan = P.make ~seed:3 ~wire:(P.link ~drop_nth:[ 1; 2; 3 ] ()) () in
  let engine = Sim.Engine.create () in
  let chaos =
    Harness.Chaos.create engine ~plan ~timeout:(us 100) ~retries:10
      ~backoff:1.0 ~jitter:0.0 ()
  in
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server =
    C.make_server ~ncores:2 ~engine ~fault:plan
      ~egress:(Harness.Chaos.egress chaos) bypass setup
  in
  Harness.Chaos.connect chaos server.C.driver;
  Harness.Chaos.call chaos
    ~service_id:(Workload.Scenario.service_id_of setup ~service_idx:0)
    ~method_id:0
    ~port:(Workload.Scenario.port_of setup ~service_idx:0)
    (Rpc.Value.Blob (Bytes.make 32 'x'));
  Sim.Engine.run engine ~until:(ms 50);
  let cl = Harness.Chaos.client chaos in
  let stats = Harness.Chaos.stats chaos in
  checki "completed" 1 (Harness.Client.completed cl);
  checki "abandoned" 0 (Harness.Client.abandoned cl);
  checki "retransmits" 6 (Harness.Client.retransmits cl);
  checki "scripted request drops" 3 (List.assoc "req_scripted_drops" stats);
  checki "scripted reply drops" 3 (List.assoc "rep_scripted_drops" stats);
  checki "request frames seen" 7 (List.assoc "req_seen" stats);
  checki "reply frames seen" 4 (List.assoc "rep_seen" stats)

(* --- properties ---------------------------------------------------- *)

(* (a) Any seeded plan with loss < 1.0 (here drop, duplication and
   corruption each up to 0.4, plus reordering) completes every RPC
   once retries are enabled. *)
let prop_loss_recovered =
  QCheck.Test.make ~count:6 ~name:"retries complete every RPC under chaos"
    QCheck.(
      quad (int_bound 1000) (int_bound 40) (int_bound 40) (int_bound 40))
    (fun (seed, drop, dup, corrupt) ->
      let pct n = float_of_int n /. 100. in
      let plan =
        P.make ~seed:(seed + 1)
          ~wire:
            (P.link ~drop:(pct drop) ~duplicate:(pct dup)
               ~corrupt:(pct corrupt) ~reorder:0.2 ())
          ()
      in
      let m = lossy plan in
      m.C.sent > 0
      && m.C.completed = m.C.sent
      && C.counter m "abandoned" = 0)

(* (b) Corrupted frames never reach an endpoint: the checksums reject
   every one, the rejection counters account for them exactly, and
   (with retries off) every sent RPC either completed or was abandoned
   because one of its two frames was eaten. *)
let prop_corrupt_never_delivered =
  QCheck.Test.make ~count:6 ~name:"corrupted frames never reach an endpoint"
    QCheck.(pair (int_bound 1000) (int_bound 7))
    (fun (seed, c) ->
      let corrupt = float_of_int (c + 3) /. 10. in
      let plan = P.make ~seed:(seed + 1) ~wire:(P.link ~corrupt ()) () in
      let m = lossy ~retries:0 ~drain:(ms 10) plan in
      let ctr = C.counter m in
      m.C.sent > 0
      && ctr "req_corrupt_delivered" = 0
      && ctr "rep_corrupt_delivered" = 0
      && ctr "req_corrupt_rejected" > 0
      && m.C.completed + ctr "req_corrupt_rejected"
         + ctr "rep_corrupt_rejected"
         = m.C.sent
      && m.C.completed + ctr "abandoned" = m.C.sent)

(* (c) Duplicate-reply suppression: with both directions duplicating
   half their frames, the completion count still equals the request
   count, and the suppression counter shows the dups were real. *)
let prop_dup_suppression =
  QCheck.Test.make ~count:6 ~name:"duplicate replies are suppressed"
    QCheck.(int_bound 1000)
    (fun seed ->
      let plan =
        P.make ~seed:(seed + 1) ~wire:(P.link ~duplicate:0.5 ()) ()
      in
      let m = lossy ~retries:4 plan in
      m.C.sent > 0
      && m.C.completed = m.C.sent
      && C.counter m "duplicates_suppressed" > 0)

(* (d) Same seed, same plan => identical measurement, including the
   order-sensitive completion-timeline digest, on the stack with the
   most machinery (Lauberhorn with delayed coherence fills racing a
   short TRYAGAIN timeout). *)
let prop_determinism =
  QCheck.Test.make ~count:3 ~name:"same seed reproduces the timeline"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let plan =
        P.make ~seed:(seed + 1)
          ~wire:
            (P.link ~drop:0.05 ~duplicate:0.1 ~corrupt:0.05 ~reorder:0.1 ())
          ~fill_delay:0.2 ~fill_delay_ns:(us 300) ()
      in
      let flavour =
        C.Lauberhorn
          ( Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian (us 200),
            Lauberhorn.Sched_mirror.Push )
      in
      let run () = lossy ~flavour plan in
      run () = run ())

(* --- coherence choke point ---------------------------------------- *)

(* A delayed fill loses the race against the TRYAGAIN timeout: the
   parked load gets the dummy fill, and the real data lands afterwards
   as staged state. *)
let test_home_agent_delayed_fill () =
  let e = Sim.Engine.create () in
  let ha =
    Coherence.Home_agent.create e Coherence.Interconnect.eci
      ~stage_delay:(fun () -> us 50)
      ~timeout:(us 10) ()
  in
  let line = Coherence.Home_agent.alloc_line ha in
  let fills = ref [] in
  Coherence.Home_agent.cpu_load ha line (fun f -> fills := f :: !fills);
  Coherence.Home_agent.stage ha line (Bytes.make 64 'd');
  Sim.Engine.run e;
  (match !fills with
  | [ Coherence.Home_agent.Tryagain ] -> ()
  | _ -> Alcotest.fail "expected exactly one TRYAGAIN fill");
  checki "stage was deferred" 1 (Coherence.Home_agent.delayed_stages ha);
  checkb "data landed after the dummy fill" true
    (Coherence.Home_agent.stage_pending ha line)

(* Under load on the full Lauberhorn stack: every fill delayed past the
   TRYAGAIN timeout still lets every RPC complete, through the real
   recovery path, and the counters prove it ran. *)
let test_delayed_fills_under_load () =
  let plan = P.make ~seed:5 ~fill_delay:1.0 ~fill_delay_ns:(us 400) () in
  let flavour =
    C.Lauberhorn
      ( Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian (us 100),
        Lauberhorn.Sched_mirror.Push )
  in
  let { C.m; _ } =
    C.lossy_run ~ncores:4 ~rate:20_000. ~horizon:(ms 2) ~drain:(ms 60) ~plan
      flavour
  in
  checkb "sent some" true (m.C.sent > 0);
  checki "all completed" m.C.sent m.C.completed;
  checkb "fills were delayed" true (C.counter m "ha_delayed_fills" > 0);
  checkb "TRYAGAINs fired" true (C.counter m "ha_tryagains" > 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "fault"
    [
      ( "links",
        Alcotest.test_case "scripted drops retransmit" `Quick
          test_scripted_drops
        :: qsuite
             [
               prop_loss_recovered;
               prop_corrupt_never_delivered;
               prop_dup_suppression;
             ] );
      ( "coherence",
        [
          Alcotest.test_case "delayed fill yields TRYAGAIN" `Quick
            test_home_agent_delayed_fill;
          Alcotest.test_case "delayed fills under load" `Slow
            test_delayed_fills_under_load;
        ] );
      ("determinism", qsuite [ prop_determinism ]);
    ]
