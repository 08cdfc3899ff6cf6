(* Quickstart: bring up a Lauberhorn server with one echo service, fire
   10k small RPCs at it over a simulated 100 Gb/s wire, and print
   end-system latency percentiles next to the same workload on the
   Linux-style and kernel-bypass baselines.

   Run with: dune exec examples/quickstart.exe *)

let port = 7000
let ncores = 4
let rate = 200_000. (* requests/s *)
let horizon = Sim.Units.ms 50

let run_stack name make_driver =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let driver = make_driver engine recorder in
  let rng = Sim.Rng.create ~seed:42 in
  let svc = Rpc.Interface.echo_service ~id:1 in
  ignore svc;
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq ->
      let args = Rpc.Value.Blob (Bytes.make 64 'x') in
      Harness.Traffic.inject recorder driver ~rpc_id:seq
        ~client:Harness.Traffic.default_client
        ~service_id:1 ~method_id:0 ~port args);
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 5);
  let h = Harness.Recorder.latencies recorder in
  Format.printf "%-10s  %6d done  %a@." name
    (Harness.Recorder.completed recorder)
    Sim.Histogram.pp_summary h

let () =
  Format.printf "quickstart: 64B echo RPCs at %.0f/s on %d cores@.@." rate
    ncores;
  run_stack "lauberhorn" (fun engine recorder ->
      let stack =
        Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores
          ~services:
            [
              Lauberhorn.Stack.spec ~port (Rpc.Interface.echo_service ~id:1);
            ]
          ~egress:(Harness.Recorder.egress recorder)
          ()
      in
      Lauberhorn.Stack.driver stack);
  run_stack "linux" (fun engine recorder ->
      let stack =
        Baseline.Linux_stack.create engine
          ~profile:Coherence.Interconnect.pcie_enzian ~ncores
          ~services:
            [
              Baseline.Linux_stack.spec ~port
                (Rpc.Interface.echo_service ~id:1);
            ]
          ~egress:(Harness.Recorder.egress recorder)
          ()
      in
      Baseline.Linux_stack.driver stack);
  run_stack "bypass" (fun engine recorder ->
      let stack =
        Baseline.Bypass_stack.create engine
          ~profile:Coherence.Interconnect.pcie_enzian ~ncores
          ~services:
            [
              Baseline.Bypass_stack.spec ~port
                (Rpc.Interface.echo_service ~id:1);
            ]
          ~egress:(Harness.Recorder.egress recorder)
          ()
      in
      Baseline.Bypass_stack.driver stack);
  Format.printf
    "@.Lauberhorn should sit well below linux and at-or-below bypass.@."
