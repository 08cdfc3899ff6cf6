(* E4 — Section 6: "for large messages ... it is best to revert back to
   DMA-based transfers ... empirically for Enzian this happens at about
   4 KiB."

   Part A sweeps the raw transfer functions (cache-line streaming vs
   DMA burst) and locates the analytic crossover. Part B confirms it
   end-to-end: request latency with the default 4 KiB fallback
   threshold against an always-DMA configuration. *)

let sizes = [ 64; 256; 1_024; 2_048; 4_096; 8_192; 16_384; 65_536 ]

let analytic () =
  let p = Coherence.Interconnect.eci in
  Common.table
    ~header:[ "payload"; "cache-line path"; "DMA path"; "winner" ]
    (List.map
       (fun bytes ->
         let lines = Coherence.Interconnect.line_transfer p ~bytes in
         let dma = Coherence.Interconnect.dma_transfer p ~bytes in
         [
           Printf.sprintf "%dB" bytes;
           Common.ns lines;
           Common.ns dma;
           (if lines < dma then "lines" else "dma");
         ])
       sizes);
  (* Locate the crossover by bisection on the analytic curves. *)
  let rec bisect lo hi =
    if hi - lo <= 64 then hi
    else
      let mid = (lo + hi) / 2 in
      if
        Coherence.Interconnect.line_transfer p ~bytes:mid
        < Coherence.Interconnect.dma_transfer p ~bytes:mid
      then bisect mid hi
      else bisect lo mid
  in
  bisect 64 65_536

let end_to_end ~cfg bytes =
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server =
    Common.make_server ~ncores:4
      (Common.Lauberhorn (cfg, Lauberhorn.Sched_mirror.Push))
      setup
  in
  for i = 1 to 100 do
    ignore
      (Sim.Engine.schedule_at server.Common.engine
         ~at:(i * Sim.Units.us 200)
         (fun () ->
           Common.inject_blob server ~seq:i ~service_idx:0 ~bytes))
  done;
  let m = Common.measure ~name:"e2e" ~horizon:(Sim.Units.ms 25) server in
  m.Common.p50

let run () =
  Common.section "E4: cache-line transfer vs DMA — the ~4 KiB crossover";
  let cross = analytic () in
  Common.note "analytic crossover on the Enzian/ECI profile: ~%dB" cross;
  let crossover =
    { Common.id = "E4.crossover"; holds = cross >= 2_048 && cross <= 8_192 }
  in
  Common.note "paper expectation: about 4 KiB.%s" (Common.verdict crossover);
  Format.printf "@.";
  (* End-to-end: default threshold (4 KiB fallback) vs always-DMA. *)
  let default_cfg = Lauberhorn.Config.enzian in
  let always_dma = Lauberhorn.Config.with_dma_threshold Lauberhorn.Config.enzian 1 in
  Common.table
    ~header:
      [ "payload"; "p50 (4KiB fallback)"; "p50 (always DMA)"; "delta" ]
    (List.map
       (fun bytes ->
         let with_lines = end_to_end ~cfg:default_cfg bytes in
         let with_dma = end_to_end ~cfg:always_dma bytes in
         [
           Printf.sprintf "%dB" bytes;
           Common.ns with_lines;
           Common.ns with_dma;
           Printf.sprintf "%+dns" (with_dma - with_lines);
         ])
       [ 64; 1_024; 2_048; 8_192; 65_536 ]);
  Common.note
    "paper expectation: the line path wins below the threshold, and the";
  Common.note
    "fallback makes the two configurations converge for large payloads.";
  [ crossover ]
