(* E14 — per-RPC causal tracing and stage-latency attribution.

   The paper's §6 argues that a NIC integrated with the OS sees every
   RPC's arrival and departure, so it can attribute end-system latency
   to pipeline stages with zero application instrumentation. We enable
   the span tracer on each stack flavour, run a closed-loop ping-pong,
   and decompose the recorder-measured latency into the stack's stage
   chain. The decomposition is exact by construction — stage spans
   telescope from ingress to egress — and this experiment checks that
   invariant on every completed RPC.

   Each flavour's spans are exported as a Chrome trace-event JSON
   (open in Perfetto / chrome://tracing) and every frame crossing the
   server edge is captured to a nanosecond pcap; both artefacts are
   re-parsed here as a self-check. Output files land in $E14_OUT_DIR
   (default: artifacts/, created on demand). *)

let rtts = 64
let payload = 64
let propagation = Sim.Units.ns 500

let sanitize name =
  String.map (function '/' | ' ' -> '-' | c -> c) name

(* Closed-loop ping-pong with tracing enabled and the wire tapped. *)
let traced_ping_pong flavour =
  let setup =
    Workload.Scenario.echo_fleet ~n:1 ~handler_time:(Sim.Units.ns 500) ()
  in
  let engine = Sim.Engine.create () in
  let pcap = Obs.Pcap.create () in
  let tap frame =
    Obs.Pcap.add_frame pcap ~time:(Sim.Engine.now engine) frame
  in
  let server =
    Common.make_server ~ncores:4 ~engine ~tap
      ?sanitize:(Common.engine_sanitizer engine) flavour setup
  in
  Obs.Tracer.enable server.Common.tracer;
  let completions = ref [] in
  let remaining = ref rtts in
  let next = ref 0 in
  let fire () =
    incr next;
    Common.inject_blob server ~seq:!next ~service_idx:0 ~bytes:payload
  in
  Harness.Recorder.on_complete server.Common.recorder
    (fun ~rpc_id ~latency ->
      completions := (Int64.to_int rpc_id, latency) :: !completions;
      decr remaining;
      if !remaining > 0 then
        ignore
          (Sim.Engine.schedule_after engine ~after:(2 * propagation)
             (fun () -> fire ())));
  fire ();
  Sim.Engine.run engine ~until:(Sim.Units.s 2);
  Common.close server;
  (server, pcap, List.rev !completions)

(* Per-stage totals in first-seen chain order. *)
let aggregate_stages tracer completions =
  Common.totals
    (List.concat_map
       (fun (rpc, _) ->
         List.map
           (fun s -> (s.Obs.Span.name, Obs.Span.duration s))
           (Obs.Tracer.stages_of tracer ~rpc))
       completions)

let exact_sum_check tracer completions =
  List.fold_left
    (fun bad (rpc, latency) ->
      let sum =
        List.fold_left
          (fun acc s -> acc + Obs.Span.duration s)
          0
          (Obs.Tracer.stages_of tracer ~rpc)
      in
      if sum = latency then bad else bad + 1)
    0 completions

let export_and_verify ~name server pcap =
  let dir = Common.artefact_dir "E14_OUT_DIR" in
  let base = "e14_" ^ sanitize name in
  let tracer = server.Common.tracer in
  let json_file = Filename.concat dir (base ^ ".trace.json") in
  let json_verdict =
    Common.write_json ~file:json_file
      (Obs.Export.trace_events ~process:("lauberhorn-sim/" ^ name) tracer)
  in
  let pcap_file = Filename.concat dir (base ^ ".pcap") in
  let pcap_verdict = Common.write_pcap ~file:pcap_file pcap in
  Common.note "%s: %d spans -> %s (%s)" name
    (Obs.Tracer.span_count tracer)
    (Filename.basename json_file)
    json_verdict;
  Common.note "%s: %s (%s)" name (Filename.basename pcap_file) pcap_verdict

let flavours =
  [
    ( "lauberhorn/enzian",
      Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push)
    );
    ("ccnic-static", Common.Static Lauberhorn.Config.enzian);
    ("bypass/pcie-enzian", Common.Bypass Coherence.Interconnect.pcie_enzian);
    ("linux/pcie-enzian", Common.Linux Coherence.Interconnect.pcie_enzian);
  ]

let run () =
  Common.section
    "E14: per-RPC causal tracing and stage-latency attribution";
  let results =
    List.map
      (fun (name, flavour) ->
        let server, pcap, completions = traced_ping_pong flavour in
        (name, server, pcap, completions))
      flavours
  in
  List.iter
    (fun (name, server, _, completions) ->
      let tracer = server.Common.tracer in
      let n = List.length completions in
      let total_lat =
        List.fold_left (fun acc (_, l) -> acc + l) 0 completions
      in
      Format.printf "@.  -- %s: %d RPCs, mean end-system latency %s --@." name
        n
        (Common.ns (if n = 0 then 0 else total_lat / n));
      let stages = aggregate_stages tracer completions in
      Common.table
        ~header:[ "stage"; "mean"; "share" ]
        (List.map
           (fun (stage, total) ->
             [
               stage;
               Common.ns (if n = 0 then 0 else total / n);
               Printf.sprintf "%5.1f%%"
                 (100. *. float_of_int total /. float_of_int (max 1 total_lat));
             ])
           stages);
      let mismatches = exact_sum_check tracer completions in
      Common.note "stage sums equal measured latency for %d/%d RPCs%s"
        (n - mismatches) n
        (if mismatches = 0 then "  [exact]" else "  [ATTRIBUTION GAP]"))
    results;
  Format.printf "@.";
  Common.note "exports (to $E14_OUT_DIR, default artifacts/):";
  List.iter
    (fun (name, server, pcap, _) -> export_and_verify ~name server pcap)
    results;
  Common.note
    "open the .trace.json files in Perfetto (ui.perfetto.dev) or";
  Common.note
    "chrome://tracing; the .pcap files in Wireshark/tcpdump (ns precision).";
  []
