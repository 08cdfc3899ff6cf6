(* E18 — rack-scale observability: cross-fabric causal tracing and
   deterministic metrics aggregation.

   E14 showed one host attributing its end-system latency to pipeline
   stages with zero application instrumentation; E17 put N such hosts
   behind a ToR switch. This experiment closes the loop: the E17 rack
   runs with the tracing plane armed, so every fan-out RPC — client →
   uplink wire → switch ingress/crossbar/egress → host wire → NIC →
   service → reply path — stitches into one causal tree whose stage
   durations sum EXACTLY to the client-observed end-to-end latency.
   The trace context rides inside the frames (Rpc.Wire_format's
   16-byte extension), each plane traces only its own events, and
   Obs.Stitch reassembles post-run; exactness is re-verified in-run
   for every completed RPC.

   Alongside, every registry — eight host stacks, the switch, the
   control plane — merges into one rack-wide snapshot in fixed
   (plane, name) order. Everything printed is a pure function of the
   simulation: the whole digest, with tracing armed, is byte-identical
   run to run (scripts/gates.sh double-runs it and re-runs it under
   the sanitizers, artefacts included).

   Artefacts land in $E18_OUT_DIR (default artifacts/): a multi-track
   Perfetto trace (one process per host plane + the master plane's
   client/switch/control tracks), pcap taps on the uplink and host-0
   switch ports, and the merged metrics registry as JSON — each
   re-parsed here as a self-check. *)

let hosts = 8
let rate = 200_000.
let horizon = Sim.Units.ms 5
let drain = Sim.Units.ms 10
let seed = 1818

(* ---------- one traced rack run ---------- *)

type run = {
  rack : Rack.rack;
  obs : Obs.Tracer.t;
  completions : (int * int) list; (* (rpc_id, latency), completion order *)
  stitches : Obs.Stitch.t list;
  pcap_uplink : Obs.Pcap.t;
  pcap_host0 : Obs.Pcap.t;
}

let host_planes rack =
  Array.to_list
    (Array.mapi
       (fun h s -> (Printf.sprintf "host%d" h, s.Common.tracer))
       rack.Rack.servers)

let traced_run () =
  let obs = Obs.Tracer.create () in
  let rack = Rack.make_rack ~obs ~hosts () in
  let sw = Cluster.Fabric.switch rack.Rack.fabric in
  let pcap_uplink = Obs.Pcap.create () in
  let pcap_host0 = Obs.Pcap.create () in
  Cluster.Switch.tap sw ~port:hosts pcap_uplink;
  Cluster.Switch.tap sw ~port:0 pcap_host0;
  (* E14-style arrivals, but open-loop across the rack and keeping our
     own (rpc_id, latency) log so the stitched trees can be checked
     against the client's measurement per RPC *)
  let engine = Cluster.Fabric.engine rack.Rack.fabric in
  let rng = Sim.Rng.create ~seed in
  let setup = rack.Rack.servers.(0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let completions = ref [] in
  Harness.Client.on_complete rack.Rack.client (fun ~rpc_id ~latency ->
      completions := (rpc_id, latency) :: !completions);
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      Harness.Client.call rack.Rack.client ~service_id ~method_id:0
        ~port:rack.Rack.service_port
        (Rpc.Value.Blob (Bytes.make 64 'w'))
        ignore);
  Cluster.Fabric.run rack.Rack.fabric ~until:(horizon + drain);
  Rack.finish rack;
  (* control-plane track: lifecycle transitions as instants on the
     master plane (registration timeline here; deaths when they
     happen) *)
  let tc = Obs.Tracer.track obs "control" in
  List.iter
    (fun (h, t) ->
      Obs.Tracer.instant obs ~track:tc ~name:(Printf.sprintf "host%d alive" h)
        t)
    (List.rev rack.Rack.alive_at);
  List.iter
    (fun (h, t) ->
      Obs.Tracer.instant obs ~track:tc ~name:(Printf.sprintf "host%d dead" h)
        t)
    (List.rev rack.Rack.dead_at);
  let stitches = Obs.Stitch.assemble ~root:obs ~parts:(host_planes rack) in
  {
    rack;
    obs;
    completions = List.rev !completions;
    stitches;
    pcap_uplink;
    pcap_host0;
  }

(* ---------- digest: every observable, machine-independent ---------- *)

let find_stitch r id =
  List.find_opt (fun (s : Obs.Stitch.t) -> Int.equal s.Obs.Stitch.trace id)
    r.stitches

(* The rack-scale E14 invariant, checked per RPC against the client's
   own measurement: stitched, contiguous, and stage_sum = latency. *)
let attribution_mismatches r =
  List.fold_left
    (fun bad (id, latency) ->
      match find_stitch r id with
      | Some s when Obs.Stitch.exact s && s.Obs.Stitch.stage_sum = latency ->
          bad
      | Some _ | None -> bad + 1)
    0 r.completions

(* Per-stage totals in first-seen chain order, tagged with the plane
   kind ("fabric" for the master plane, "host" for any host's). *)
let aggregate_stages r =
  Common.totals
    (List.concat_map
       (fun (s : Obs.Stitch.t) ->
         List.map
           (fun (st : Obs.Stitch.stage) ->
             let plane =
               if st.Obs.Stitch.plane = "" then "fabric" else "host"
             in
             ( (plane, st.Obs.Stitch.span.Obs.Span.name),
               Obs.Span.duration st.Obs.Stitch.span ))
           s.Obs.Stitch.stages)
       r.stitches)

let merged_metrics r =
  let merged = Obs.Metrics.create () in
  Array.iter
    (fun s ->
      Obs.Metrics.merge_into ~src:s.Common.driver.Harness.Driver.metrics
        ~dst:merged)
    r.rack.Rack.servers;
  Obs.Metrics.merge_into
    ~src:(Cluster.Switch.metrics (Cluster.Fabric.switch r.rack.Rack.fabric))
    ~dst:merged;
  Obs.Metrics.merge_into
    ~src:(Cluster.Control.metrics r.rack.Rack.control)
    ~dst:merged;
  merged

let metrics_checksum m =
  List.fold_left
    (fun acc (name, v) -> acc + (Hashtbl.hash name lxor (v * 0x9e3779b1)))
    0
    (Obs.Metrics.to_list ~keep_zero:true m)

let digest_lines r =
  let n = List.length r.completions in
  let exact =
    List.length
      (List.filter
         (fun (s : Obs.Stitch.t) -> Obs.Stitch.exact s)
         r.stitches)
  in
  let total_lat = List.fold_left (fun acc (_, l) -> acc + l) 0 r.completions in
  let stitch_line =
    Printf.sprintf
      "stitched traces=%d exact=%d completed=%d attribution-mismatches=%d"
      (List.length r.stitches) exact n (attribution_mismatches r)
  in
  let stage_lines =
    List.map
      (fun ((plane, name), total) ->
        Printf.sprintf "stage %-7s %-16s mean=%-9s share=%4.1f%%" plane name
          (Common.ns (if n = 0 then 0 else total / n))
          (100. *. float_of_int total /. float_of_int (max 1 total_lat)))
      (aggregate_stages r)
  in
  let merged = merged_metrics r in
  let metrics_line =
    Printf.sprintf "merged metrics entries=%d checksum=%08x"
      (List.length (Obs.Metrics.to_list ~keep_zero:true merged))
      (metrics_checksum merged land 0xffffffff)
  in
  Rack.digest_lines r.rack
  @ (stitch_line :: stage_lines)
  @ [ metrics_line ]

(* ---------- artefact export + self-check ---------- *)

let export_and_verify r =
  let dir = Common.artefact_dir "E18_OUT_DIR" in
  let planes = ("rack-fabric", r.obs) :: host_planes r.rack in
  let json_file = Filename.concat dir "e18_rack.trace.json" in
  let verdict =
    Common.write_json ~file:json_file (Obs.Export.multi_trace_events planes)
  in
  Common.note "%s: %d planes, %d spans (%s)"
    (Filename.basename json_file)
    (List.length planes)
    (List.fold_left
       (fun acc (_, tr) -> acc + Obs.Tracer.span_count tr)
       0 planes)
    verdict;
  let merged = merged_metrics r in
  let metrics_file = Filename.concat dir "e18_metrics.json" in
  (* the metrics line reports the entry count; the trace line above
     carries this section's JSON verdict *)
  ignore (Common.write_json ~file:metrics_file (Obs.Metrics.to_json merged));
  Common.note "%s: %d metrics (merged by plane: hosts, switch, control)"
    (Filename.basename metrics_file)
    (List.length (Obs.Metrics.to_list ~keep_zero:true merged));
  List.iter
    (fun (tag, pcap) ->
      let file = Filename.concat dir (Printf.sprintf "e18_%s.pcap" tag) in
      Common.note "%s: %s" (Filename.basename file)
        (Common.write_pcap ~file pcap))
    [ ("uplink", r.pcap_uplink); ("host0", r.pcap_host0) ]

(* ---------- the experiment ---------- *)

let run () =
  Common.section
    "E18: rack-scale observability — stitched traces, merged metrics";
  Common.note "%d hosts at %s on one engine, tracing armed on every plane"
    hosts
    (Common.rate_str rate);
  let r = traced_run () in
  Common.note_lines "armed rack" (digest_lines r);
  Common.note "";
  Common.note "exports (to $E18_OUT_DIR, default artifacts/):";
  export_and_verify r;
  Common.note
    "every stage of every RPC is attributed — client queue, uplink wire,";
  Common.note
    "switch ingress/crossbar/egress, host wire, NIC pipeline, service,";
  Common.note
    "and the reply path — and the stitched stage durations sum exactly";
  Common.note
    "to the client-observed latency, with the whole plane deterministic.";
  []
