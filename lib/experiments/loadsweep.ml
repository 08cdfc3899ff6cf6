(* E6 — the headline comparison: end-system latency and throughput
   under offered load, Linux vs kernel-bypass vs Lauberhorn.

   One hot echo service (500 ns handler) on 4 cores, open-loop Poisson
   arrivals, λ swept toward saturation. The paper's claim: performance
   for RPC workloads better than the fastest kernel-bypass approaches,
   without giving up kernel-grade flexibility. *)

let rates = [ 50_000.; 200_000.; 400_000.; 600_000.; 800_000. ]
let horizon = Sim.Units.ms 30

let flavours =
  [
    Common.Linux Coherence.Interconnect.pcie_enzian;
    Common.Bypass Coherence.Interconnect.pcie_enzian;
    Common.Static Lauberhorn.Config.enzian;
    Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
  ]

let run () =
  Common.section "E6: load sweep — p50/p99 end-system latency vs offered load";
  let results =
    List.map
      (fun rate ->
        ( rate,
          List.map
            (fun flavour ->
              Common.open_loop_run ~ncores:4 ~max_workers:3 ~rate ~horizon
                flavour)
            flavours ))
      rates
  in
  Common.latency_table flavours results;
  (* Shape check at a moderate load point. *)
  let _, at200k = List.nth results 1 in
  match at200k with
  | [ lin; byp; _static; lau ] ->
      let order =
        {
          Common.id = "E6.latency_order";
          holds =
            lau.Common.p50 <= byp.Common.p50 && byp.Common.p50 < lin.Common.p50;
        }
      in
      Common.note
        "paper expectation: Lauberhorn at or below bypass at every load,";
      Common.note "both far below the kernel stack.";
      Common.note "measured at 200k/s: lauberhorn %s, bypass %s, linux %s%s"
        (Common.ns lau.Common.p50) (Common.ns byp.Common.p50)
        (Common.ns lin.Common.p50) (Common.verdict order);
      [ order ]
  | _ -> []
