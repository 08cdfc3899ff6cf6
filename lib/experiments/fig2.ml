(* E1 — Figure 2: 64-byte message round-trip latencies.

   The paper's figure compares the interaction latency of a coherent
   interconnect (ECI on Enzian) against DMA-over-PCIe on the same
   machine and on a modern PC server. We reproduce it as a closed-loop
   ping-pong of 64-byte RPCs with a zero-cost handler, so the measured
   time is pure mechanism. The end-system latency is measured by the
   recorder; the wire (serialization + propagation, identical for every
   mechanism) is added analytically for the full RTT. *)

let rtts = 2_000
let payload = 64
let propagation = Sim.Units.ns 500 (* ~100 m of fibre *)

let ping_pong flavour =
  let setup =
    Workload.Scenario.echo_fleet ~n:1 ~handler_time:(Sim.Units.ns 0) ()
  in
  let server = Common.make_server ~ncores:4 flavour setup in
  let remaining = ref rtts in
  let next = ref 0 in
  let fire () =
    incr next;
    Common.inject_blob server ~seq:!next ~service_idx:0 ~bytes:payload
  in
  Harness.Recorder.on_complete server.Common.recorder
    (fun ~rpc_id:_ ~latency:_ ->
      decr remaining;
      if !remaining > 0 then
        (* The next ping leaves after one client-side wire RTT. *)
        ignore
          (Sim.Engine.schedule_after server.Common.engine
             ~after:(2 * propagation) (fun () -> fire ())));
  fire ();
  Sim.Engine.run server.Common.engine ~until:(Sim.Units.s 2);
  let h = Harness.Recorder.latencies server.Common.recorder in
  ( Harness.Recorder.completed server.Common.recorder,
    Sim.Histogram.quantile h 0.5,
    Sim.Histogram.quantile h 0.99 )

let run () =
  Common.section "E1 (Figure 2): 64-byte message round-trip latencies";
  let wire_one_way =
    propagation
    + Net.Wire.serialization_delay ~gbps:100.
        ~bytes:(64 + Net.Ethernet.header_size + Net.Ipv4.header_size
                + Net.Udp.header_size)
  in
  let mechanisms =
    [
      ( "ECI coherent (Enzian)",
        Common.Lauberhorn
          (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push) );
      ( "DMA/PCIe poll-mode (Enzian)",
        Common.Bypass Coherence.Interconnect.pcie_enzian );
      ( "DMA/PCIe poll-mode (modern)",
        Common.Bypass Coherence.Interconnect.pcie_modern );
      ( "DMA/PCIe interrupts (Enzian)",
        Common.Linux Coherence.Interconnect.pcie_enzian );
      ( "CXL3 coherent (anticipated)",
        Common.Lauberhorn
          (Lauberhorn.Config.modern, Lauberhorn.Sched_mirror.Push) );
    ]
  in
  let results =
    List.map
      (fun (label, flavour) ->
        let done_, p50, p99 = ping_pong flavour in
        (label, done_, p50, p99))
      mechanisms
  in
  Common.table
    ~header:[ "mechanism"; "RTTs"; "end-system p50"; "full RTT p50"; "p99" ]
    (List.map
       (fun (label, done_, p50, p99) ->
         [
           label;
           string_of_int done_;
           Common.ns p50;
           Common.ns (p50 + (2 * wire_one_way));
           Common.ns p99;
         ])
       results);
  (* The figure itself, as ASCII bars (end-system p50). *)
  Format.printf "@.";
  let max_p50 =
    List.fold_left (fun acc (_, _, p50, _) -> max acc p50) 1 results
  in
  List.iter
    (fun (label, _, p50, _) ->
      let width = p50 * 46 / max_p50 in
      Common.note "%-29s %s %s" label
        (String.make (max 1 width) '#')
        (Common.ns p50))
    results;
  let get label =
    let _, _, p50, _ = List.find (fun (l, _, _, _) -> l = label) results in
    p50
  in
  let eci = get "ECI coherent (Enzian)" in
  let dma_enzian = get "DMA/PCIe poll-mode (Enzian)" in
  let dma_modern = get "DMA/PCIe poll-mode (modern)" in
  Common.note "paper expectation: ECI well below DMA on the same machine,";
  Common.note
    "and below even a modern server's DMA path (Figure 2's ordering).";
  Common.note "measured: ECI/DMA-Enzian speedup %.2fx, ECI/DMA-modern %.2fx%s"
    (float_of_int dma_enzian /. float_of_int eci)
    (float_of_int dma_modern /. float_of_int eci)
    (if eci < dma_modern && dma_modern < dma_enzian then "  [shape holds]"
     else "  [SHAPE VIOLATION]")
