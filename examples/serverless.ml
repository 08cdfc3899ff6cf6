(* Serverless: 64 functions, bursty Zipf-skewed invocations, on an
   8-core Lauberhorn server. Functions are not resident (min_workers =
   0): the first invocation of a cold function takes the Figure 5
   kernel-dispatch path and activates a worker; idle workers retire via
   TRYAGAIN-yield, freeing cores for whoever is hot — the paper's
   "dynamic scaling of the cores used for RPC based on load".

   Run with: dune exec examples/serverless.exe *)

let nfunctions = 64
let ncores = 8
let horizon = Sim.Units.ms 100

let () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let rng = Sim.Rng.create ~seed:17 in
  let setup = Workload.Scenario.mixed_fleet ~n:nfunctions rng in
  let cfg =
    (* Sub-millisecond TRYAGAIN so idle functions release their cores
       quickly relative to the burst timescale. *)
    Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian (Sim.Units.us 200)
  in
  let stack =
    Lauberhorn.Stack.create engine ~cfg ~ncores
      ~services:
        (List.mapi
           (fun i def ->
             Lauberhorn.Stack.spec ~min_workers:0 ~max_workers:2
               ~port:setup.Workload.Scenario.ports.(i) def)
           setup.Workload.Scenario.defs)
      ~egress:(Harness.Recorder.egress recorder)
      ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  (* Warm/cold latency split: an invocation is cold when its function
     had no active worker at arrival. *)
  let warm = Sim.Histogram.create () and cold = Sim.Histogram.create () in
  let was_cold : (int64, bool) Hashtbl.t = Hashtbl.create 1024 in
  Harness.Recorder.on_complete recorder (fun ~rpc_id ~latency ->
      match Hashtbl.find_opt was_cold rpc_id with
      | Some true -> Sim.Histogram.record cold latency
      | Some false -> Sim.Histogram.record warm latency
      | None -> ());
  let zipf = Workload.Dist.Zipf.create ~n:nfunctions ~s:1.4 in
  (* Bursty arrivals: on/off phases of 5 ms at 400k/s and 20k/s. *)
  Workload.Arrivals.step_rates engine rng
    ~steps:
      (List.concat
         (List.init 10 (fun _ ->
              [ (Sim.Units.ms 5, 400_000.); (Sim.Units.ms 5, 20_000.) ])))
    (fun ~seq ->
      let idx = Workload.Rpc_mix.zipf_pick rng zipf in
      let sid = Workload.Scenario.service_id_of setup ~service_idx:idx in
      Hashtbl.replace was_cold (Int64.of_int seq)
        (Lauberhorn.Stack.active_workers stack ~service_id:sid = 0);
      let size =
        Workload.Dist.sample_int Workload.Rpc_mix.small_rpc_sizes rng
      in
      Harness.Traffic.inject recorder driver ~rpc_id:seq
        ~client:Harness.Traffic.default_client
        ~service_id:sid ~method_id:0
        ~port:(Workload.Scenario.port_of setup ~service_idx:idx)
        (Rpc.Value.Blob (Bytes.make (min size 60_000) 'f')));
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 20);

  let resident =
    List.fold_left
      (fun acc def ->
        acc
        + Lauberhorn.Stack.active_workers stack
            ~service_id:def.Rpc.Interface.service_id)
      0 setup.Workload.Scenario.defs
  in
  Format.printf "serverless: %d functions on %d cores@." nfunctions ncores;
  Format.printf "  invocations: sent=%d completed=%d@."
    (Harness.Recorder.sent recorder)
    (Harness.Recorder.completed recorder);
  Format.printf "  warm: %a@." Sim.Histogram.pp_summary warm;
  Format.printf "  cold: %a@." Sim.Histogram.pp_summary cold;
  Format.printf "  resident workers at end: %d@." resident;
  let c name =
    Sim.Counter.value (Sim.Counter.counter (Lauberhorn.Stack.counters stack) name)
  in
  Format.printf
    "  activations=%d deactivations=%d kernel-dispatches=%d fast-path=%d@."
    (c "worker_activate") (c "worker_deactivate") (c "slow_path_dispatch")
    (c "fast_path");
  (* NIC-side telemetry (paper section 6): per-service stats measured
     by the NIC itself, zero CPU cost. Show the three hottest. *)
  let stats sid = Lauberhorn.Stack.service_stats stack ~service_id:sid in
  let hottest =
    List.map (fun def -> def.Rpc.Interface.service_id) setup.Workload.Scenario.defs
    |> List.sort Int.compare
    |> List.map (fun sid ->
           (sid, Sim.Histogram.count (stats sid).Lauberhorn.Stack.latency))
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
    |> List.filteri (fun i _ -> i < 3)
  in
  Format.printf "@.  NIC telemetry, three hottest functions:@.";
  List.iter
    (fun (sid, n) ->
      let s = stats sid in
      Format.printf "    service %d: %d invocations (fast=%d queued=%d cold=%d) %a@."
        sid n s.Lauberhorn.Stack.fast s.Lauberhorn.Stack.queued
        s.Lauberhorn.Stack.cold Sim.Histogram.pp_summary
        s.Lauberhorn.Stack.latency)
    hottest;
  Format.printf
    "@.Cold invocations pay one kernel dispatch (wake + context switch);@.";
  Format.printf
    "warm ones ride the zero-software fast path. The resident set@.";
  Format.printf "tracks the burst's hot functions, not all %d.@." nfunctions
