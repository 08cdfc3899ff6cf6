(* Tests for the runtime protocol sanitizers (lib/sanitize).

   Two directions, both load-bearing:
   - seeded whole-stack runs (lossy wire, kill/restart) must come back
     sanitizer-clean with a nonzero check count — the sanitizers hold
     on healthy executions and are demonstrably attached;
   - deliberately injected protocol violations (double-release, stale
     fill across a reset, dispatch to a swept pid, diverged mirror)
     must each be caught with a precise diagnostic. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let us = Sim.Units.us
let ms = Sim.Units.ms

module C = Experiments.Common
module P = Fault.Plan
module Z = Sanitize

let lauberhorn =
  C.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push)

let bypass = C.Bypass Coherence.Interconnect.pcie_enzian
let linux = C.Linux Coherence.Interconnect.pcie_enzian

let collector engine = Z.create ~mode:Z.Collect engine

let details z = List.map (fun v -> v.Z.detail) (Z.violations z)

let assert_clean name z =
  List.iter
    (fun v -> Format.eprintf "%s: %a@." name Z.pp_violation v)
    (Z.violations z);
  checki (name ^ ": no violations") 0 (List.length (Z.violations z));
  checkb (name ^ ": sanitizer actually ran checks") true (Z.checks_run z > 0)

let has_detail z needle =
  List.exists
    (fun d ->
      let len = String.length needle in
      let n = String.length d in
      let rec go i = i + len <= n && (String.equal (String.sub d i len) needle || go (i + 1)) in
      go 0)
    (details z)

(* --- session plumbing ---------------------------------------------- *)

let test_collect_and_raise () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  Z.report z ~checker:"test" "first";
  Z.report z ~checker:"test" "second";
  (match Z.violations z with
  | [ a; b ] ->
      Alcotest.check Alcotest.string "oldest first" "first" a.Z.detail;
      Alcotest.check Alcotest.string "then newest" "second" b.Z.detail
  | vs -> Alcotest.failf "expected 2 violations, got %d" (List.length vs));
  let zr = Z.create engine in
  (* default Raise mode *)
  match Z.report zr ~checker:"test" "boom" with
  | () -> Alcotest.fail "Raise mode did not raise"
  | exception Z.Violation v ->
      Alcotest.check Alcotest.string "checker" "test" v.Z.checker

let test_finish_idempotent () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let runs = ref 0 in
  Z.on_finish z (fun () -> incr runs);
  Z.finish z;
  Z.finish z;
  checki "finisher ran exactly once" 1 !runs

(* --- pool sanitizer ------------------------------------------------ *)

let test_pool_clean_lifecycle () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let pool = Net.Pool.create ~buffer_bytes:64 () in
  let w = Z.Pool_watch.attach z pool in
  let b1 = Net.Pool.acquire pool ~len:64 in
  let b2 = Net.Pool.acquire pool ~len:64 in
  checki "two outstanding" 2 (Z.Pool_watch.outstanding w);
  Net.Pool.release pool b1;
  Net.Pool.release pool b2;
  checki "none outstanding" 0 (Z.Pool_watch.outstanding w);
  Z.finish z;
  assert_clean "pool lifecycle" z

let test_pool_double_release_caught () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let pool = Net.Pool.create ~buffer_bytes:64 () in
  let _w = Z.Pool_watch.attach z pool in
  let b1 = Net.Pool.acquire pool ~len:64 in
  let _b2 = Net.Pool.acquire pool ~len:64 in
  Net.Pool.release pool b1;
  Net.Pool.release pool b1;
  (* double release of b1 *)
  checkb "double release diagnosed" true (has_detail z "double release")

let test_pool_poisoning_detects_use_after_release () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let pool = Net.Pool.create ~buffer_bytes:64 () in
  let w = Z.Pool_watch.attach z pool in
  let b = Net.Pool.acquire pool ~len:64 in
  Bytes.fill b 0 (Bytes.length b) 'A';
  let stale_view = Net.Slice.of_bytes b in
  Z.Pool_watch.assert_live w stale_view;
  checki "live view passes" 0 (List.length (Z.violations z));
  Net.Pool.release pool b;
  checkb "released buffer is poisoned" true
    (Char.equal (Bytes.get b 0) Z.Pool_watch.poison_byte);
  Z.Pool_watch.assert_live w stale_view;
  checkb "use-after-release diagnosed" true (has_detail z "use-after-release")

(* The same for a frame past the 2048-byte base buffer: the DMA NIC
   takes it into a larger pool class, and a slice of its payload kept
   past its [consume] (the misuse [Dma_nic.consume] forbids) reads as
   poison. *)
let test_pool_large_class_use_after_release () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let nic =
    Nic.Dma_nic.create engine Coherence.Interconnect.pcie_enzian
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.nqueues = 1 }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  let w = Z.Pool_watch.attach z (Nic.Dma_nic.pool nic) in
  Nic.Dma_nic.rx_from_wire nic
    (Harness.Traffic.request_frame ~rpc_id:1L ~service_id:1 ~method_id:0
       ~port:7000 ~client:(Harness.Traffic.client_endpoint ())
       (Rpc.Value.Blob (Bytes.make 9000 'b')));
  Sim.Engine.run engine;
  let kept = ref Net.Slice.empty in
  let delivered =
    Nic.Dma_nic.consume nic ~queue:0 (fun b ->
        kept :=
          Net.Slice.make b ~off:Net.Frame.payload_offset
            ~len:(Net.Frame.payload_len b ~off:0))
  in
  match delivered with
  | false -> Alcotest.fail "the frame was not delivered"
  | true ->
      let kept = !kept in
      checkb "held in a large-class buffer" true
        (Bytes.length kept.Net.Slice.base > 2048);
      checki "its buffer went back at consume" 0 (Z.Pool_watch.outstanding w);
      Z.Pool_watch.assert_live w kept;
      checkb "use-after-release diagnosed" true
        (has_detail z "use-after-release")

(* Byte-exact 4 KiB and 60 KiB echoes through the bypass stack with the
   pool and event-loop sanitizers on. Each request is decoded straight
   out of a large-class receive buffer and that buffer is recycled at
   once; every reply's blob must still equal its request's. *)
let test_bypass_large_echo_clean () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  Z.Engine_watch.attach z engine;
  let recorder = Harness.Recorder.create engine in
  let replies = ref [] in
  let stack =
    Baseline.Bypass_stack.create engine
      ~profile:Coherence.Interconnect.pcie_enzian ~ncores:2 ~sanitize:z
      ~services:
        [ Baseline.Bypass_stack.spec ~port:7000 (Rpc.Interface.echo_service ~id:1) ]
      ~egress:(fun f ->
        replies := f :: !replies;
        Harness.Recorder.egress recorder f)
      ()
  in
  let driver = Baseline.Bypass_stack.driver stack in
  let rng = Sim.Rng.create ~seed:5 in
  let sent =
    List.mapi
      (fun i size ->
        ( i + 1,
          Bytes.init size (fun _ -> Char.chr (Sim.Rng.int rng ~bound:256)) ))
      [ 4096; 60 * 1024; 4096; 60 * 1024; 60 * 1024; 4096 ]
  in
  List.iteri
    (fun i (rpc_id, blob) ->
      ignore
        (Sim.Engine.schedule_after engine ~after:(us (5 * (i + 1))) (fun () ->
             Harness.Traffic.inject recorder driver ~rpc_id ~service_id:1
               ~client:Harness.Traffic.default_client
               ~method_id:0 ~port:7000 (Rpc.Value.Blob (Bytes.copy blob)))))
    sent;
  Sim.Engine.run engine ~until:(ms 2);
  checki "all echoed" (List.length sent) (Harness.Recorder.completed recorder);
  checki "one reply each" (List.length sent) (List.length !replies);
  List.iter
    (fun (f : Net.Frame.t) ->
      match Rpc.Wire_format.decode f.Net.Frame.payload with
      | Error e -> Alcotest.failf "reply header: %a" Rpc.Wire_format.pp_error e
      | Ok m -> (
          match Rpc.Codec.decode Rpc.Schema.Blob m.Rpc.Wire_format.body with
          | Ok (Rpc.Value.Blob got) ->
              checkb
                (Printf.sprintf "rpc %d: reply blob = request blob"
                   m.Rpc.Wire_format.rpc_id)
                true
                (Bytes.equal got (List.assoc m.Rpc.Wire_format.rpc_id sent))
          | Ok _ | Error _ -> Alcotest.fail "reply body is not a blob"))
    !replies;
  let pool = Nic.Dma_nic.pool (Baseline.Bypass_stack.nic stack) in
  checki "every request took a pooled buffer" (List.length sent)
    (Net.Pool.acquired pool);
  checki "and gave it back" 0 (Net.Pool.outstanding pool);
  Z.finish z;
  assert_clean "bypass large echo" z

let test_pool_leak_caught_and_in_flight_excused () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let pool = Net.Pool.create ~buffer_bytes:64 () in
  let _w = Z.Pool_watch.attach z pool in
  let _leaked = Net.Pool.acquire pool ~len:64 in
  Z.finish z;
  checkb "leak diagnosed at finish" true (has_detail z "leak");
  (* The same shape with the buffer legitimately parked (e.g. in a NIC
     ring descriptor) is excused by the in_flight closure. *)
  let engine2 = Sim.Engine.create () in
  let z2 = collector engine2 in
  let pool2 = Net.Pool.create ~buffer_bytes:64 () in
  let _w2 = Z.Pool_watch.attach z2 ~in_flight:(fun () -> 1) pool2 in
  let _parked = Net.Pool.acquire pool2 ~len:64 in
  Z.finish z2;
  assert_clean "parked buffer is not a leak" z2

(* --- event-loop sanitizer ------------------------------------------ *)

let test_engine_watch_clean_run () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  Z.Engine_watch.attach z engine;
  let fired = ref 0 in
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (51 - i)) (fun () -> incr fired))
  done;
  Sim.Engine.run engine ~until:(ms 1);
  Z.finish z;
  checki "all events fired" 50 !fired;
  assert_clean "monotone event loop" z

let heap_ops =
  QCheck.(list (pair (int_bound 10_000) bool))

let prop_event_heap_valid_under_fuzz =
  QCheck.Test.make ~count:200 ~name:"event heap stays valid under push/cancel/pop fuzz"
    heap_ops (fun ops ->
      let h = Sim.Event_heap.create () in
      let handles = ref [] in
      List.iter
        (fun (time, do_cancel) ->
          let hd = Sim.Event_heap.push h ~time () in
          handles := hd :: !handles;
          if do_cancel then begin
            match !handles with
            | victim :: rest ->
                Sim.Event_heap.cancel h victim;
                handles := rest
            | [] -> ()
          end)
        ops;
      (match Sim.Event_heap.validate h with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      (* Draining must yield nondecreasing times and agree with live. *)
      let rec drain last n =
        match Sim.Event_heap.pop h with
        | None -> n
        | Some (t, ()) ->
            if t < last then QCheck.Test.fail_report "pop went backwards";
            drain t (n + 1)
      in
      let popped = drain min_int 0 in
      ignore popped;
      Sim.Event_heap.is_empty h)

(* --- coherence sanitizer ------------------------------------------- *)

let agent_profile = Coherence.Interconnect.eci

let test_coherence_clean_protocol () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let ha =
    Coherence.Home_agent.create engine agent_profile ~timeout:(ms 15) ()
  in
  Z.Coherence_watch.attach z ha;
  let line = Coherence.Home_agent.alloc_line ha in
  let fills = ref 0 in
  Coherence.Home_agent.cpu_load ha line (fun _ -> incr fills);
  Sim.Engine.run engine ~until:(us 10);
  Coherence.Home_agent.stage ha line (Bytes.make 16 'd');
  Sim.Engine.run engine ~until:(ms 1);
  checki "fill delivered" 1 !fills;
  (* A reset with nothing in flight is a legitimate teardown. *)
  Coherence.Home_agent.reset_line ha line;
  Z.finish z;
  assert_clean "clean coherence protocol" z

let test_coherence_stale_fill_caught () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let ha =
    Coherence.Home_agent.create engine agent_profile ~timeout:(ms 15) ()
  in
  Z.Coherence_watch.attach z ha;
  let line = Coherence.Home_agent.alloc_line ha in
  Coherence.Home_agent.cpu_load ha line (fun _ -> ());
  (* Let the load reach the agent and park. *)
  Sim.Engine.run engine ~until:(us 10);
  checkb "load parked" true (Coherence.Home_agent.load_parked ha line);
  (* Complete it — the fill is now crossing the interconnect — and
     tear the line down before the fill lands. *)
  Coherence.Home_agent.stage ha line (Bytes.make 16 'd');
  Coherence.Home_agent.reset_line ha line;
  Sim.Engine.run engine ~until:(ms 1);
  checkb "stale fill diagnosed" true (has_detail z "reset_line")

(* --- scheduler-mirror sanitizer ------------------------------------ *)

let test_mirror_divergence_caught () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let _w =
    Z.Mirror_watch.attach z ~name:"test-mirror"
      ~truth:(fun () -> "core0=7.1")
      ~view:(fun () -> "core0=-")
      ()
  in
  Z.finish z;
  checkb "divergence diagnosed" true (has_detail z "test-mirror")

let test_mirror_divergence_skipped_mid_push () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let _w =
    Z.Mirror_watch.attach z
      ~quiesced:(fun () -> false)
      ~name:"test-mirror"
      ~truth:(fun () -> "core0=7.1")
      ~view:(fun () -> "core0=-")
      ()
  in
  Z.finish z;
  checki "cutoff mid-push is not a violation" 0 (List.length (Z.violations z))

let test_mirror_dead_pid_dispatch_caught () =
  let engine = Sim.Engine.create () in
  let z = collector engine in
  let same () = "core0=-" in
  let w = Z.Mirror_watch.attach z ~name:"test-mirror" ~truth:same ~view:same () in
  Z.Mirror_watch.dispatch w ~pid:7 ~alive:true;
  checki "stale-window dispatch passes" 0 (List.length (Z.violations z));
  Z.Mirror_watch.dispatch w ~pid:7 ~alive:false;
  checkb "swept-pid dispatch diagnosed" true (has_detail z "pid 7")

(* --- whole-stack seeded runs --------------------------------------- *)

(* A short lossy open-loop run with every sanitizer attached (the
   Collect session watches the engine the test owns, and is passed
   straight through [make_server], which wires the coherence, mirror
   and pool watches exactly as LAUBERHORN_SANITIZE=1 does). *)
let sanitized_lossy ~seed ~flavour ?(kill = false) () =
  let plan =
    P.make ~seed
      ~wire:
        (P.link ~drop:0.05 ~duplicate:0.05 ~corrupt:0.02 ~reorder:0.1
           ~reorder_delay:(us 30) ())
      ()
  in
  let engine = Sim.Engine.create () in
  let z = collector engine in
  Z.Engine_watch.attach z engine;
  let chaos =
    Harness.Chaos.create engine ~plan ~timeout:(us 100) ~retries:60
      ~backoff:1.5 ~max_timeout:(us 500) ~jitter:0.25 ()
  in
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server =
    C.make_server ~ncores:4 ~engine ~fault:plan ~sanitize:z
      ~egress:(Harness.Chaos.egress chaos) flavour setup
  in
  Harness.Chaos.connect chaos server.C.driver;
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let port = Workload.Scenario.port_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed:(seed + 1) in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:50_000. ~until:(ms 2)
    (fun ~seq:_ ->
      Harness.Chaos.call chaos ~service_id ~method_id:0 ~port
        (Rpc.Value.Blob (Bytes.make 32 'x')));
  if kill then begin
    ignore
      (Sim.Engine.schedule_at engine ~at:(us 600) (fun () ->
           server.C.kill_service ~service_id));
    ignore
      (Sim.Engine.schedule_at engine ~at:(ms 1) (fun () ->
           server.C.restart_service ~service_id))
  end;
  Sim.Engine.run engine ~until:(ms 40);
  server.C.flush ();
  Z.finish z;
  z

let seeds = QCheck.int_bound 9_999

let prop_lossy_runs_sanitizer_clean flavour name =
  QCheck.Test.make ~count:4 ~name seeds (fun seed ->
      let z = sanitized_lossy ~seed ~flavour () in
      List.iter
        (fun v -> Format.eprintf "seed %d: %a@." seed Z.pp_violation v)
        (Z.violations z);
      List.length (Z.violations z) = 0 && Z.checks_run z > 0)

let test_kill_restart_sanitizer_clean () =
  let z = sanitized_lossy ~seed:42 ~flavour:lauberhorn ~kill:true () in
  assert_clean "lauberhorn kill/restart under loss" z

(* E15's crash run closes its sanitizer session: the end-of-run checks
   (mirror convergence, pool leaks, heap validation) run once the run
   drains, and they come back clean. *)
let test_failover_crash_finishes_sanitizer () =
  let session = ref None and finished = ref false in
  let sanitize engine =
    let z = collector engine in
    Z.Engine_watch.attach z engine;
    Z.on_finish z (fun () -> finished := true);
    session := Some z;
    z
  in
  let r =
    Experiments.Failover.run_crash ~sanitize
      ~server_fault:
        (P.server_fault ~crash_at:Experiments.Failover.crash_at
           ~downtime:Experiments.Failover.downtime ())
      lauberhorn
  in
  checki "crashed once" 1 r.Experiments.Failover.crashes;
  checkb "finish checks ran" true !finished;
  match !session with
  | Some z -> assert_clean "E15 lauberhorn crash" z
  | None -> Alcotest.fail "no sanitizer session"

(* A rack's hosts share the fabric's one engine, and an engine has one
   monitor. Under LAUBERHORN_SANITIZE=1 the rack's own session watches
   that engine, so its event-loop watch ticks exactly once per fired
   event, the master's and the client's included, plus once for the
   heap check at finish. Each host keeps a session of its own for its
   pool, coherence and mirror watches. *)
let test_rack_engine_watched_once () =
  let var = "LAUBERHORN_SANITIZE" in
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  let rack =
    Fun.protect
      ~finally:(fun () -> Unix.putenv var saved)
      (fun () ->
        Unix.putenv var "1";
        Experiments.Rack.load_run ~hosts:2 ~rate:100_000. ~seed:5)
  in
  let fabric = rack.Experiments.Rack.fabric in
  checkb "calls completed" true
    (Harness.Client.completed rack.Experiments.Rack.client > 0);
  checkb "every host has a session" true
    (Array.for_all
       (fun s -> Option.is_some s.C.sanitize)
       rack.Experiments.Rack.servers);
  match rack.Experiments.Rack.sanitize with
  | Some z ->
      checki "one tick per event, one at finish"
        (Cluster.Fabric.events_processed fabric + 1)
        (Z.checks_run z)
  | None -> Alcotest.fail "the rack's engine has no sanitizer session"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let q t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "sanitize"
    [
      ( "session",
        [
          tc "collect vs raise" test_collect_and_raise;
          tc "finish idempotent" test_finish_idempotent;
        ] );
      ( "pool",
        [
          tc "clean lifecycle" test_pool_clean_lifecycle;
          tc "double release caught" test_pool_double_release_caught;
          tc "use-after-release via poisoning"
            test_pool_poisoning_detects_use_after_release;
          tc "leak caught, ring-parked excused"
            test_pool_leak_caught_and_in_flight_excused;
          tc "large-class use-after-release via poisoning"
            test_pool_large_class_use_after_release;
        ] );
      ( "engine",
        [
          tc "clean run" test_engine_watch_clean_run;
          tc "a rack's one engine is watched once"
            test_rack_engine_watched_once;
          q prop_event_heap_valid_under_fuzz;
        ] );
      ( "coherence",
        [
          tc "clean protocol" test_coherence_clean_protocol;
          tc "stale fill across reset caught" test_coherence_stale_fill_caught;
        ] );
      ( "mirror",
        [
          tc "divergence caught" test_mirror_divergence_caught;
          tc "mid-push cutoff skipped" test_mirror_divergence_skipped_mid_push;
          tc "dead-pid dispatch caught" test_mirror_dead_pid_dispatch_caught;
        ] );
      ( "whole-stack",
        [
          q (prop_lossy_runs_sanitizer_clean lauberhorn
               "seeded lossy lauberhorn runs are sanitizer-clean");
          q (prop_lossy_runs_sanitizer_clean bypass
               "seeded lossy bypass runs are sanitizer-clean");
          q (prop_lossy_runs_sanitizer_clean linux
               "seeded lossy linux runs are sanitizer-clean");
          tc "kill/restart under loss stays clean"
            test_kill_restart_sanitizer_clean;
          tc "E15 crash run finishes its session"
            test_failover_crash_finishes_sanitizer;
          tc "bypass 4 KiB and 60 KiB echo byte-exact and clean"
            test_bypass_large_echo_clean;
        ] );
    ]
