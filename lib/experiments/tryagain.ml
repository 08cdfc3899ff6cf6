(* E5 — Section 5.1: the TRYAGAIN timeout.

   "We avoid [coherence-protocol bus errors] by returning TRYAGAIN
   dummy messages after 15ms, reducing the polling overhead (both bus
   traffic and CPU spinning) to almost zero."

   Sweep the timeout on an idle server and measure the resulting bus
   traffic (dummy fills per second per parked line), then add sparse
   traffic and check that request latency does not depend on the
   timeout (a parked load is answered by the packet, not the timer). *)

let idle_window = Sim.Units.ms 200

let idle_traffic timeout =
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server =
    Common.make_server ~ncores:4
      (Common.Lauberhorn
         ( Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian timeout,
           Lauberhorn.Sched_mirror.Push ))
      setup
  in
  Sim.Engine.run server.Common.engine ~until:idle_window;
  match server.Common.lauberhorn with
  | Some stack ->
      let ha = Lauberhorn.Stack.home_agent stack in
      ( Coherence.Home_agent.tryagains ha,
        Coherence.Home_agent.loads ha + Coherence.Home_agent.fills ha
        + Coherence.Home_agent.tryagains ha )
  | None -> (0, 0)

let sparse_latency timeout =
  let m =
    Common.open_loop_run ~ncores:4 ~rate:1_000. ~horizon:(Sim.Units.ms 100)
      (Common.Lauberhorn
         ( Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian timeout,
           Lauberhorn.Sched_mirror.Push ))
  in
  m.Common.p50

let run () =
  Common.section "E5: TRYAGAIN timeout vs polling overhead (idle server)";
  let timeouts =
    [
      Sim.Units.us 100;
      Sim.Units.ms 1;
      Sim.Units.ms 5;
      Sim.Units.ms 15;
      Sim.Units.ms 50;
    ]
  in
  let rows =
    List.map
      (fun timeout ->
        let tryagains, bus = idle_traffic timeout in
        let p50 = sparse_latency timeout in
        ( timeout,
          tryagains,
          [
            Common.ns timeout;
            string_of_int tryagains;
            Common.rate_str
              (float_of_int bus /. Sim.Units.to_float_s idle_window);
            Common.ns p50;
          ] ))
      timeouts
  in
  Common.table
    ~header:
      [ "timeout"; "tryagains (200ms idle)"; "bus transactions"; "sparse p50" ]
    (List.map (fun (_, _, row) -> row) rows);
  let tryagains_at timeout =
    let _, n, _ = List.find (fun (t, _, _) -> Int.equal t timeout) rows in
    n
  in
  let t15 = tryagains_at (Sim.Units.ms 15) in
  let t100us = tryagains_at (Sim.Units.us 100) in
  let idle = { Common.id = "E5.idle_traffic"; holds = t15 * 10 < t100us } in
  Common.note
    "paper expectation: at 15 ms the dummy-fill traffic is negligible";
  Common.note
    "(vs a spin loop's millions of checks/s) and latency is unaffected.";
  Common.note "measured: 15ms -> %d dummies in 200ms vs %d at 100us%s" t15
    t100us
    (Common.verdict idle);
  [ idle ]
