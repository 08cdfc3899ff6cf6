(* E7 — dynamic workloads: many more services than cores, skewed
   popularity.

   32 echo services on 8 cores, Zipf(1.6) popularity. The bypass stack
   statically binds services to pollers, so the poller owning the hot
   service saturates while its neighbours idle; Lauberhorn shares all
   cores, activating and retiring workers with load (section 5.2). *)

let nservices = 32
let ncores = 8
let zipf_s = 1.6
let rates = [ 600_000.; 1_000_000.; 1_300_000. ]
let horizon = Sim.Units.ms 30

(* E7's claim, on the top rate's runs: sharing every core keeps
   Lauberhorn's p99 below that of bypass's static binding. *)
let tail ~lau ~byp =
  { Common.id = "E7.tail"; holds = lau.Common.p99 < byp.Common.p99 }

let run () =
  Common.section
    "E7: dynamic mix — 32 Zipf-skewed services on 8 cores";
  let run_one flavour rate =
    match flavour with
    | Common.Lauberhorn _ ->
        Common.open_loop_run ~ncores ~nservices ~min_workers:0 ~max_workers:2
          ~zipf_s ~rate ~horizon flavour
    | Common.Linux _ | Common.Bypass _ | Common.Static _ ->
        Common.open_loop_run ~ncores ~nservices ~zipf_s ~rate ~horizon
          flavour
  in
  let flavours =
    [
      Common.Bypass Coherence.Interconnect.pcie_enzian;
      Common.Linux Coherence.Interconnect.pcie_enzian;
      (* The static ablation shares the coherent interconnect but not
         the OS integration; give its time-sharing a 50 us park so
         colocated pinned services can take turns at all. *)
      Common.Static
        (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
           (Sim.Units.us 50));
      Common.Lauberhorn
        (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    ]
  in
  let results =
    List.map
      (fun rate -> (rate, List.map (fun f -> run_one f rate) flavours))
      rates
  in
  Common.latency_table flavours results;
  match List.rev results with
  | (_, [ byp; _lin; _static; lau ]) :: _ ->
      let tail = tail ~lau ~byp in
      Common.note
        "paper expectation: static binding collapses when the hot poller";
      Common.note
        "saturates; Lauberhorn keeps the tail bounded by sharing cores.";
      Common.note "measured at the top rate: lauberhorn p99 %s vs bypass %s%s"
        (Common.ns lau.Common.p99) (Common.ns byp.Common.p99)
        (Common.verdict tail);
      Common.note
        "ablation: the ccnic-static column has Lauberhorn's interconnect";
      Common.note
        "but the traditional split — its p50 matches Lauberhorn while its";
      Common.note
        "tail explodes, isolating the value of OS integration from the";
      Common.note "value of coherent delivery (paper section 2's critique).";
      (* Churn statistics from the top-rate Lauberhorn run. *)
      Common.note
        "lauberhorn worker churn: %d activations, %d deactivations, %d kernel dispatches"
        (Common.counter lau "worker_activate")
        (Common.counter lau "worker_deactivate")
        (Common.counter lau "slow_path_dispatch");
      [ tail ]
  | _ -> []
