(* Tests for the baseline stacks: the Linux-style kernel receive path
   and the kernel-bypass poll-mode path. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let inject recorder (driver : Harness.Driver.t) ~rpc_id ~port v =
  Harness.Traffic.inject recorder driver ~rpc_id ~service_id:1 ~method_id:0
    ~client:Harness.Traffic.default_client
    ~port v

(* ---------- Linux stack ---------- *)

let make_linux ?(ncores = 4) ?(threads = 2) () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let stack =
    Baseline.Linux_stack.create engine
      ~profile:Coherence.Interconnect.pcie_enzian ~ncores
      ~services:
        [
          Baseline.Linux_stack.spec ~threads ~port:7000
            (Rpc.Interface.echo_service ~id:1);
        ]
      ~egress:(Harness.Recorder.egress recorder)
      ()
  in
  (engine, recorder, stack, Baseline.Linux_stack.driver stack)

let test_linux_echo_end_to_end () =
  let engine, recorder, stack, driver = make_linux () in
  ignore
    (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
         inject recorder driver ~rpc_id:1 ~port:7000
           (Rpc.Value.Blob (Bytes.of_string "linux-path"))));
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  checki "completed" 1 (Harness.Recorder.completed recorder);
  let lat = Sim.Histogram.max_value (Harness.Recorder.latencies recorder) in
  (* The kernel path pays interrupt + softirq + wake + switch + copies:
     its end-system latency for a small RPC sits in the ~5-40us band. *)
  checkb "latency band" true (lat > Sim.Units.us 5 && lat < Sim.Units.us 40);
  checkb "interrupt fired" true
    (Sim.Counter.value
       (Sim.Counter.counter (Baseline.Linux_stack.counters stack) "interrupts")
    >= 1)

let test_linux_many_requests_all_complete () =
  let engine, recorder, _stack, driver = make_linux () in
  for i = 1 to 500 do
    ignore
      (Sim.Engine.schedule_at engine
         ~at:(Sim.Units.us 10 + (i * Sim.Units.us 3))
         (fun () ->
           inject recorder driver ~rpc_id:i ~port:7000
             (Rpc.Value.Blob (Bytes.make 64 'x'))))
  done;
  Sim.Engine.run engine ~until:(Sim.Units.ms 20);
  checki "all complete" 500 (Harness.Recorder.completed recorder)

let test_linux_unknown_port_dropped () =
  let engine, recorder, stack, driver = make_linux () in
  ignore
    (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
         Harness.Traffic.inject recorder driver ~rpc_id:1 ~service_id:1
           ~client:Harness.Traffic.default_client
           ~method_id:0 ~port:9999 (Rpc.Value.Blob (Bytes.make 8 'x'))));
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  checki "not completed" 0 (Harness.Recorder.completed recorder);
  checki "drop counted" 1
    (Sim.Counter.value
       (Sim.Counter.counter
          (Baseline.Linux_stack.counters stack)
          "rx_no_service"))

let test_linux_interrupt_coalescing_under_load () =
  let engine, recorder, stack, driver = make_linux () in
  (* 200 packets in 1ms: moderation (20us) must deliver far fewer
     interrupts than packets. *)
  for i = 1 to 200 do
    ignore
      (Sim.Engine.schedule_at engine
         ~at:(Sim.Units.us 10 + (i * Sim.Units.us 5))
         (fun () ->
           inject recorder driver ~rpc_id:i ~port:7000
             (Rpc.Value.Blob (Bytes.make 32 'x'))))
  done;
  Sim.Engine.run engine ~until:(Sim.Units.ms 10);
  checki "all complete" 200 (Harness.Recorder.completed recorder);
  let irqs =
    Sim.Counter.value
      (Sim.Counter.counter (Baseline.Linux_stack.counters stack) "interrupts")
  in
  checkb "coalesced" true (irqs < 150)

(* ---------- Bypass stack ---------- *)

let make_bypass ?(ncores = 2) ?pollers ?(nservices = 1) () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let services =
    List.init nservices (fun i ->
        Baseline.Bypass_stack.spec ~port:(7000 + i)
          (Rpc.Interface.echo_service ~id:(i + 1)))
  in
  let stack =
    Baseline.Bypass_stack.create engine
      ~profile:Coherence.Interconnect.pcie_enzian ~ncores ?pollers ~services
      ~egress:(Harness.Recorder.egress recorder)
      ()
  in
  (engine, recorder, stack, Baseline.Bypass_stack.driver stack)

let test_bypass_echo_end_to_end () =
  let engine, recorder, _stack, driver = make_bypass () in
  ignore
    (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
         inject recorder driver ~rpc_id:1 ~port:7000
           (Rpc.Value.Blob (Bytes.of_string "bypass"))));
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  checki "completed" 1 (Harness.Recorder.completed recorder);
  let lat = Sim.Histogram.max_value (Harness.Recorder.latencies recorder) in
  checkb "latency band (2-10us)" true
    (lat > Sim.Units.us 2 && lat < Sim.Units.us 10)

let test_bypass_spin_accounting () =
  let engine, recorder, stack, driver = make_bypass ~ncores:1 () in
  (* One request at t=100us: the poller spins for the first 100us. *)
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 100) (fun () ->
         inject recorder driver ~rpc_id:1 ~port:7000
           (Rpc.Value.Blob (Bytes.make 16 'x'))));
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  let acct = Osmodel.Kernel.account (Baseline.Bypass_stack.kernel stack) ~core:0 in
  let spin = Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.Spin in
  checkb "spin covers the idle wait" true (spin >= Sim.Units.us 95);
  checkb "some useful work" true
    (Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.User > 0)

let test_bypass_static_assignment () =
  let _engine, _recorder, stack, _driver =
    make_bypass ~ncores:2 ~pollers:2 ~nservices:4 ()
  in
  (* Round-robin: services 0,2 on poller 0; 1,3 on poller 1. *)
  checki "svc0" 0 (Baseline.Bypass_stack.poller_of_port stack ~port:7000);
  checki "svc1" 1 (Baseline.Bypass_stack.poller_of_port stack ~port:7001);
  checki "svc2" 0 (Baseline.Bypass_stack.poller_of_port stack ~port:7002);
  checki "svc3" 1 (Baseline.Bypass_stack.poller_of_port stack ~port:7003)

let test_bypass_hol_blocking_on_shared_poller () =
  (* Two services pinned to one poller: a burst to service A delays
     service B — the inflexibility the paper attacks. *)
  let engine, recorder, _stack, driver =
    make_bypass ~ncores:1 ~pollers:1 ~nservices:2 ()
  in
  let b_latency = ref 0 in
  Harness.Recorder.on_complete recorder (fun ~rpc_id ~latency ->
      if rpc_id = 1000L then b_latency := latency);
  (* 50 requests to A back to back, then one to B right behind them. *)
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 10) (fun () ->
           inject recorder driver ~rpc_id:i ~port:7000
             (Rpc.Value.Blob (Bytes.make 64 'a'))))
  done;
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 11) (fun () ->
         Harness.Traffic.inject recorder driver ~rpc_id:1000 ~service_id:2
           ~client:Harness.Traffic.default_client
           ~method_id:0 ~port:7001 (Rpc.Value.Blob (Bytes.make 64 'b'))));
  Sim.Engine.run engine ~until:(Sim.Units.ms 5);
  checki "all complete" 51 (Harness.Recorder.completed recorder);
  checkb "B waited behind A's burst" true (!b_latency > Sim.Units.us 40)

let test_bypass_no_interrupts () =
  let engine, recorder, stack, driver = make_bypass () in
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at engine
         ~at:(Sim.Units.us 10 + (i * Sim.Units.us 2))
         (fun () ->
           inject recorder driver ~rpc_id:i ~port:7000
             (Rpc.Value.Blob (Bytes.make 16 'x'))))
  done;
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  checki "all complete" 50 (Harness.Recorder.completed recorder);
  checki "no interrupts ever" 0
    (Nic.Dma_nic.interrupts_fired (Baseline.Bypass_stack.nic stack))

(* A crash and restart while packets are in flight inside the
   pollers. Poller 0 (port 7000) gets a request every 600 ns, faster
   than it serves one, so a backlog waits in its ring; poller 1 (port
   7001) gets two requests 10 ns apart every 5 us and spins in
   between. The app is killed 2 ns before a stage event and restarted
   1 ns later, before the stage event fires, and the new pollers start
   at once on the backlog. A stale event must do nothing: if it ran, it
   would answer a packet lost in the crash, run a second packet on its
   poller's core, or act on the new thread's packet. *)

let stale_body i = Bytes.of_string (Printf.sprintf "request-%04d" i)

type stale_run = {
  st_sent : int;
  st_completed : int;
  st_outstanding : int;
  st_unmatched : int;
  st_answers : (int * int * Sim.Units.time * string) list;
      (* rpc id, poller, departure, body; in departure order *)
  st_violations : string list;
  st_pool_checks : int;
}

let stale_scenario ?tracer ?kill_at () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let z = Sanitize.create ~mode:Sanitize.Collect engine in
  let answers = ref [] in
  let egress (f : Net.Frame.t) =
    let payload = f.Net.Frame.payload in
    let off = Rpc.Wire_format.body_offset payload in
    let body =
      match
        Rpc.Codec.decode_sub Rpc.Schema.Blob payload ~pos:off
          ~len:(Bytes.length payload - off)
      with
      | Ok (Rpc.Value.Blob b) -> Bytes.to_string b
      | Ok _ | Error _ -> "<undecodable>"
    in
    answers :=
      ( Rpc.Wire_format.rpc_id payload,
        f.Net.Frame.src.Net.Frame.port - 7000,
        Sim.Engine.now engine,
        body )
      :: !answers;
    Harness.Recorder.egress recorder f
  in
  let stack =
    Baseline.Bypass_stack.create engine
      ~profile:Coherence.Interconnect.pcie_enzian ~ncores:2 ?tracer
      ~sanitize:z
      ~services:
        (List.map
           (fun id ->
             Baseline.Bypass_stack.spec ~port:(6999 + id)
               (Rpc.Interface.echo_service ~id))
           [ 1; 2 ])
      ~egress ()
  in
  let driver = Baseline.Bypass_stack.driver stack in
  let send ~at ~rpc ~service =
    ignore
      (Sim.Engine.schedule_at engine ~at (fun () ->
           Harness.Traffic.inject recorder driver ~rpc_id:rpc
             ~client:Harness.Traffic.default_client
             ~service_id:service ~method_id:0 ~port:(6999 + service)
             (Rpc.Value.Blob (stale_body rpc))))
  in
  for i = 0 to 39 do
    send ~at:(Sim.Units.us 10 + (i * 600)) ~rpc:i ~service:1
  done;
  for j = 0 to 4 do
    let at = Sim.Units.us 10 + 300 + (j * Sim.Units.us 5) in
    send ~at ~rpc:(100 + (2 * j)) ~service:2;
    send ~at:(at + 10) ~rpc:(101 + (2 * j)) ~service:2
  done;
  Option.iter
    (fun at ->
      ignore
        (Sim.Engine.schedule_at engine ~at (fun () ->
             Baseline.Bypass_stack.kill_service stack ~service_id:1));
      ignore
        (Sim.Engine.schedule_at engine ~at:(at + 1) (fun () ->
             Baseline.Bypass_stack.restart_service stack ~service_id:1)))
    kill_at;
  Sim.Engine.run engine ~until:(Sim.Units.us 200);
  Sanitize.finish z;
  {
    st_sent = Harness.Recorder.sent recorder;
    st_completed = Harness.Recorder.completed recorder;
    st_outstanding = Harness.Recorder.outstanding recorder;
    st_unmatched = Harness.Recorder.unmatched recorder;
    st_answers = List.rev !answers;
    st_violations =
      List.map
        (fun v -> Format.asprintf "%a" Sanitize.pp_violation v)
        (Sanitize.violations z);
    st_pool_checks = Sanitize.checks_run z;
  }

let test_bypass_stale_stage_dies_with_thread () =
  (* A traced run without a crash gives each request's stage times: the
     kill instants below are read from it. The untraced runs are the
     same simulation up to the kill. *)
  let tracer = Obs.Tracer.create () in
  Obs.Tracer.enable tracer;
  let reference = stale_scenario ~tracer () in
  checki "reference: every request answered" reference.st_sent
    reference.st_completed;
  let stage_end rpc name =
    match
      List.find_opt
        (fun (sp : Obs.Span.t) -> String.equal sp.Obs.Span.name name)
        (Obs.Tracer.stages_of tracer ~rpc:rpc)
    with
    | Some sp -> sp.Obs.Span.end_time
    | None -> Alcotest.failf "request %d has no %s stage" rpc name
  in
  let rx_cost =
    Baseline.Costs.default.Baseline.Costs.poll_rx_per_packet
    + Baseline.Costs.default.Baseline.Costs.bypass_demux
  in
  (* [lost] is the request the crash takes from a poller's hands; a
     request still in a ring at the kill survives it. *)
  let cases =
    [
      ("rx cost", stage_end 5 "poll_rx" - 2, Some 5);
      ("handler", stage_end 6 "app" - 2, Some 6);
      ("marshal", stage_end 7 "marshal" - 2, Some 7);
      (* Requests 104 and 105 reach poller 1 while it spins: the first
         of them to land in its ring schedules the resume, and its rx
         cost starts when the resume fires. The other waits in the
         ring. *)
      ( "spin resume",
        Int.min (stage_end 104 "poll_rx") (stage_end 105 "poll_rx")
        - rx_cost - 2,
        None );
    ]
  in
  (* One packet's least time on a poller's core: rx cost, handler and
     doorbell. Replies of equal size leave a poller at least this far
     apart, as its packets run one at a time. *)
  let min_service =
    rx_cost + Sim.Units.ns 500 + Baseline.Costs.default.Baseline.Costs.doorbell
  in
  List.iter
    (fun (name, kill_at, lost) ->
      let r = stale_scenario ~kill_at () in
      let what fmt = Printf.sprintf ("%s: " ^^ fmt) name in
      checki (what "no answer is unmatched or a duplicate") 0 r.st_unmatched;
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (id, _, _, body) ->
          if Hashtbl.mem seen id then
            Alcotest.failf "%s: request %d answered twice" name id;
          Hashtbl.add seen id ();
          Alcotest.check Alcotest.string
            (what "request %d carries its own body" id)
            (Bytes.to_string (stale_body id))
            body)
        r.st_answers;
      Option.iter
        (fun rpc ->
          checkb (what "request %d, lost in the crash, stays unanswered" rpc)
            false
            (Hashtbl.mem seen rpc))
        lost;
      for poller = 0 to 1 do
        let times =
          List.filter_map
            (fun (_, p, at, _) -> if p = poller then Some at else None)
            r.st_answers
        in
        ignore
          (List.fold_left
             (fun prev at ->
               if at - prev < min_service then
                 Alcotest.failf
                   "%s: poller %d answered at %d and %d, %d ns apart" name
                   poller prev at (at - prev);
               at)
             (-min_service) times)
      done;
      Alcotest.check (Alcotest.list Alcotest.string)
        (what "pool sanitizer clean") []
        r.st_violations;
      checkb (what "pool sanitizer ran") true (r.st_pool_checks > 0);
      checki
        (what "completed + outstanding = sent")
        r.st_sent
        (r.st_completed + r.st_outstanding))
    cases

(* All three stacks refuse a second service on a taken port or a
   taken service id, rather than silently keeping one of the two. *)
let test_duplicate_port_rejected () =
  let engine = Sim.Engine.create () in
  let egress _ = () in
  let profile = Coherence.Interconnect.pcie_enzian in
  let rejects name mk =
    List.iter
      (fun (case, (port2, id2)) ->
        let services =
          [ (7000, Rpc.Interface.echo_service ~id:1);
            (port2, Rpc.Interface.echo_service ~id:id2) ]
        in
        checkb (name ^ " rejects a taken " ^ case) true
          (match mk services with
          | () -> false
          | exception Invalid_argument _ -> true))
      [ ("port", (7000, 2)); ("service id", (7001, 1)) ]
  in
  rejects "bypass" (fun services ->
      ignore
        (Baseline.Bypass_stack.create engine ~profile ~ncores:2 ~egress
           ~services:
             (List.map
                (fun (port, svc) -> Baseline.Bypass_stack.spec ~port svc)
                services)
           ()));
  rejects "linux" (fun services ->
      ignore
        (Baseline.Linux_stack.create engine ~profile ~ncores:2 ~egress
           ~services:
             (List.map
                (fun (port, svc) -> Baseline.Linux_stack.spec ~port svc)
                services)
           ()));
  rejects "lauberhorn" (fun services ->
      ignore
        (Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian
           ~ncores:2 ~egress
           ~services:
             (List.map
                (fun (port, svc) -> Lauberhorn.Stack.spec ~port svc)
                services)
           ()))

(* The allocation budget of one kernel-bypass RPC, set up as
   perfbench's bypass_4k workload: 4 pollers on 4 cores behind the
   verified rss_all steering program, one echo service with a 500 ns
   handler, 4 KiB requests from 64 client flows at 200k requests/s.
   About 2k RPCs run after set-up, and every minor word the run
   allocates, arrivals included, is charged to the RPCs it completes.
   The figure is exact for a seed, and the budget is it plus 2%.
   Before the RSS hash was table-driven, steering ran without a
   per-frame closure, requests kept their headers instead of two
   endpoint records and a parked poller stopped boxing its start time,
   this run took 360.7 words per RPC and perfbench's bypass_4k 364.1;
   it then took 217.0 (bypass_4k 220.1), and 215.0 (218.1) once
   [Codec.decode_sub] wrapped its value once. Since the poller's
   packets and the DMA NIC's completions ride recycled slots, random
   draws no longer box the generator's state and request frames no
   longer build a server endpoint record, it took 149.1 (152.0). Since
   the checksum's seed is a required argument rather than an optional
   one, so a UDP encode and a UDP verify build no [Some], it took
   145.1 (148.0). Since rpc ids are immediate ints and the recorder's
   send stamps sit in a [Sim.Int_table], it took 132.1 (141.0). Since
   an IOTLB miss relinks a fixed entry instead of adding a [Hashtbl]
   binding, it took 128.2, and perfbench's bypass_4k 137.0. Since a
   frame is its two endpoints and its payload, and the codec reads and
   writes its headers at fixed offsets (a parse builds the view, two
   endpoints and a slice instead of three header records, and a reply
   only swaps the endpoints), it took 66.2, and perfbench's bypass_4k
   73.0. Since the RPC codec reads and writes at offsets, with no cursor
   per encode or decode, and [Traffic.inject] takes its client as a
   required argument, so passing one boxes no [Some], it took 54.2
   (63.0). Since the DMA NIC's receive path checks and decodes in
   place, into the poller's recycled packet slot (a descriptor is its
   buffer and length, so a completion builds no slice, and a consume
   builds no view, slice, option or request record), it takes 24.3,
   and perfbench's bypass_4k 33.0. *)
let bypass_words_budget = 24.3 *. 1.02

let test_bypass_rpc_allocation_budget () =
  let setup =
    Workload.Scenario.echo_fleet ~n:1 ~handler_time:(Sim.Units.ns 500) ()
  in
  let port = Workload.Scenario.port_of setup ~service_idx:0 in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rss_all =
    let env =
      {
        Nic.Steer_verify.queues = 4;
        workers = 4;
        payload_prefix = 0;
        cost_budget = 500;
      }
    in
    match Nic.Steer_verify.verify ~env Nic.Steer.rss_all with
    | Ok v -> v
    | Error ds -> Alcotest.failf "rss_all rejected: %s" (String.concat "; " ds)
  in
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let stack =
    Baseline.Bypass_stack.create engine
      ~profile:Coherence.Interconnect.pcie_enzian ~ncores:4 ~steering:rss_all
      ~services:
        [ Baseline.Bypass_stack.spec ~port (List.hd setup.Workload.Scenario.defs) ]
      ~egress:(Harness.Recorder.egress recorder)
      ()
  in
  let driver = Baseline.Bypass_stack.driver stack in
  let clients =
    Array.init 64 (fun idx -> Harness.Traffic.client_endpoint ~idx ())
  in
  let flow_rng = Sim.Rng.create ~seed:2 in
  let value = Rpc.Value.Blob (Bytes.make 4096 'w') in
  let horizon = Sim.Units.ms 10 in
  Workload.Arrivals.open_loop engine (Sim.Rng.create ~seed:1)
    ~rate_per_s:200_000. ~until:horizon (fun ~seq ->
      Harness.Traffic.inject recorder driver ~rpc_id:seq
        ~service_id ~method_id:0 ~port
        ~client:clients.(Sim.Rng.int flow_rng ~bound:64)
        value);
  Gc.minor ();
  let before = Gc.minor_words () in
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 1);
  let words = Gc.minor_words () -. before in
  let completed = Harness.Recorder.completed recorder in
  checki "every RPC completed" (Harness.Recorder.sent recorder) completed;
  checkb "about 2k RPCs" true (completed > 1_800);
  let per_rpc = words /. float_of_int completed in
  checkb
    (Printf.sprintf "%.1f minor words per RPC <= %.1f" per_rpc
       bypass_words_budget)
    true
    (per_rpc <= bypass_words_budget)

(* One [Dma_nic.consume] of a valid 4 KiB request, decoding into a
   recycled [Rx] record, allocates only what outlives the buffer: the
   two endpoints (8 words) and the argument value ([Blob] 2 and its
   [Ok] 2; the 4 KiB bytes go straight to the major heap). The ring is
   filled first, then each loop drains it, against the same loop
   without the consume. *)
let test_consume_allocates_only_endpoints_and_value () =
  let n = 256 in
  let engine = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create engine Coherence.Interconnect.pcie_enzian
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.nqueues = 1 }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  let by_port = Hashtbl.create 1 in
  Hashtbl.add by_port 7000 (Rpc.Interface.echo_service ~id:1);
  let r = Baseline.Rx.create () in
  let decode b = Baseline.Rx.decode_into by_port Fun.id r b in
  let fill () =
    for rpc_id = 1 to n do
      Nic.Dma_nic.rx_from_wire nic
        (Harness.Traffic.request_frame ~rpc_id:(Int64.of_int rpc_id)
           ~service_id:1 ~method_id:0 ~port:7000 ~client:Harness.Traffic.default_client
           (Rpc.Value.Blob (Bytes.make 4096 'w')))
    done;
    Sim.Engine.run engine;
    checki "the ring holds every request" n (Nic.Dma_nic.rx_pending nic)
  in
  let words_of consume =
    fill ();
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (consume ()))
    done;
    Gc.minor_words () -. before
  in
  let drain () = Nic.Dma_nic.consume nic ~queue:0 decode in
  (* A first pass grows the pool's large class to hold [n] buffers. *)
  fill ();
  for _ = 1 to n do ignore (drain ()) done;
  let words = words_of drain in
  checkb "the last one decoded as a request" true
    (r.Baseline.Rx.outcome = Baseline.Rx.Request);
  checki "the ring is drained" 0 (Nic.Dma_nic.rx_pending nic);
  let base = words_of (fun () -> false) in
  for _ = 1 to n do ignore (drain ()) done;
  Alcotest.check (Alcotest.float 0.) "words per consume" 12.
    ((words -. base) /. float_of_int n)

(* A cleared record keeps nothing of the request it held: a parked
   packet slot must not keep a 4 KiB blob or its endpoints alive. *)
let test_rx_clear_drops_the_request () =
  let by_port = Hashtbl.create 1 in
  Hashtbl.add by_port 7000 (Rpc.Interface.echo_service ~id:1);
  let frame =
    Harness.Traffic.request_frame ~rpc_id:5L ~service_id:1 ~method_id:0
      ~port:7000 ~client:Harness.Traffic.default_client
      (Rpc.Value.Blob (Bytes.make 4096 'w'))
  in
  let r = Baseline.Rx.create () in
  Baseline.Rx.decode_into by_port Fun.id r (Net.Frame.encode frame);
  checkb "decoded a request" true (r.Baseline.Rx.outcome = Baseline.Rx.Request);
  checki "its id" 5 r.Baseline.Rx.rpc_id;
  checkb "its endpoints" true
    (r.Baseline.Rx.src = frame.Net.Frame.src
    && r.Baseline.Rx.dst = frame.Net.Frame.dst);
  Baseline.Rx.clear r;
  let blank = Baseline.Rx.create () in
  checkb "no outcome" true (r.Baseline.Rx.outcome = Baseline.Rx.Bad_rpc);
  checkb "no argument value" true (r.Baseline.Rx.args == blank.Baseline.Rx.args);
  checkb "no endpoints" true
    (r.Baseline.Rx.src == blank.Baseline.Rx.src
    && r.Baseline.Rx.dst == blank.Baseline.Rx.dst);
  checkb "no method or context" true
    (r.Baseline.Rx.mdef == blank.Baseline.Rx.mdef
    && Option.is_none r.Baseline.Rx.ctx)

let () =
  Alcotest.run "baseline"
    [
      ( "linux",
        [
          Alcotest.test_case "echo end to end" `Quick
            test_linux_echo_end_to_end;
          Alcotest.test_case "500 requests complete" `Quick
            test_linux_many_requests_all_complete;
          Alcotest.test_case "unknown port dropped" `Quick
            test_linux_unknown_port_dropped;
          Alcotest.test_case "interrupt coalescing" `Quick
            test_linux_interrupt_coalescing_under_load;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "echo end to end" `Quick
            test_bypass_echo_end_to_end;
          Alcotest.test_case "spin accounting" `Quick
            test_bypass_spin_accounting;
          Alcotest.test_case "static assignment" `Quick
            test_bypass_static_assignment;
          Alcotest.test_case "head-of-line blocking" `Quick
            test_bypass_hol_blocking_on_shared_poller;
          Alcotest.test_case "no interrupts" `Quick test_bypass_no_interrupts;
          Alcotest.test_case "a stale bypass stage dies with its thread" `Quick
            test_bypass_stale_stage_dies_with_thread;
          Alcotest.test_case "duplicate port rejected" `Quick
            test_duplicate_port_rejected;
          Alcotest.test_case "rpc allocation budget" `Quick
            test_bypass_rpc_allocation_budget;
          Alcotest.test_case "a consume allocates only endpoints and value"
            `Quick test_consume_allocates_only_endpoints_and_value;
          Alcotest.test_case "a cleared decode record keeps no request" `Quick
            test_rx_clear_drops_the_request;
        ] );
    ]
