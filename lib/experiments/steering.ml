(* E20 — application-defined receive-side steering: locality-aware
   (key-hash affinity) vs. RSS dispatch under a Zipf key workload.

   Part (a), single host: a poll-mode bypass server whose NIC runs a
   statically verified steering program ({!Nic.Steer_verify}). Requests
   carry a 4-byte cache key in the payload prefix; clients are spread
   over many flows (distinct src MAC/IP/port), so RSS spreads by flow —
   uncorrelated with the key — while the key-affinity program hashes
   the key bytes themselves, pinning each key to one lane. A per-lane
   direct-mapped key cache (the application model: one cache per pinned
   core) scores both placements; affinity must win on hit rate.

   The experiment also cross-checks, in-run, that the declarative
   reference evaluator applied at the tap agrees lane-for-lane with
   what the NIC's compiled program actually did (per-lane steering
   counters on Obs.Metrics) — the QCheck equivalence property, live.

   Part (b), rack: the same verified affinity program installed on
   every bypass host of a 4-host fabric; per-host per-lane counters
   and client-side completions. *)

let handler_time = Sim.Units.ns 500
let nlanes = 8
let nflows = 64
let nkeys = 512
let zipf_s = 1.1
let cache_slots = 32
let payload_bytes = 64

(* Offset of the blob's data bytes inside the wire payload: RPC header
   (no ctx extension — tracing is off here) + the codec's varint length
   prefix. Computed, not assumed, so codec changes can't silently
   desynchronize the steering program from the wire format. *)
let key_off =
  Rpc.Wire_format.header_size
  + Bytes.length (Rpc.Codec.encode (Rpc.Value.Blob (Bytes.create payload_bytes)))
  - payload_bytes

let steer_env ~queues =
  {
    Nic.Steer_verify.queues;
    workers = queues;
    payload_prefix = key_off + 4;
    cost_budget = 500;
  }

let affinity_program ~lanes =
  Nic.Steer.key_affinity ~key_off ~key_len:4 ~lanes ()

let verify_or_die ~env prog =
  match Nic.Steer_verify.verify ~env prog with
  | Ok v -> v
  | Error diags ->
      List.iter (fun d -> Format.eprintf "steer_verify: %s@." d) diags;
      failwith ("E20: shipped steering program rejected: " ^ prog.Nic.Steer.name)

let key_blob key =
  let b = Bytes.make payload_bytes 'k' in
  Bytes.set b 0 (Char.chr ((key lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((key lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((key lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (key land 0xff));
  Rpc.Value.Blob b

let key_of_wire (f : Net.Frame.t) =
  let p = f.Net.Frame.payload in
  let b i = Char.code (Bytes.get p (key_off + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

(* The application model scored by the tap: one direct-mapped key
   cache per lane (per pinned core). *)
type lane_model = {
  caches : int array array;
  lane_counts : int array;
  mutable hits : int;
  mutable misses : int;
}

let lane_model ~lanes =
  {
    caches = Array.init lanes (fun _ -> Array.make cache_slots (-1));
    lane_counts = Array.make lanes 0;
    hits = 0;
    misses = 0;
  }

let model_touch m ~lane ~key =
  m.lane_counts.(lane) <- m.lane_counts.(lane) + 1;
  let slot = key mod cache_slots in
  if m.caches.(lane).(slot) = key then m.hits <- m.hits + 1
  else begin
    m.misses <- m.misses + 1;
    m.caches.(lane).(slot) <- key
  end

let hit_pct m =
  let total = m.hits + m.misses in
  if total = 0 then 0. else 100. *. float_of_int m.hits /. float_of_int total

let pct f = Printf.sprintf "%.1f%%" f

(* ---------- part (a): single host, rss vs. affinity ---------- *)

let run_config ~horizon ~rate prog =
  let env = steer_env ~queues:nlanes in
  let verified = verify_or_die ~env prog in
  let setup = Workload.Scenario.echo_fleet ~n:1 ~handler_time () in
  let service_port = Workload.Scenario.port_of setup ~service_idx:0 in
  let metrics = Obs.Metrics.create () in
  (* The tap's reference model: the *declarative* evaluator over the
     same program, with an RSS table built exactly like the NIC's own
     (same default key, same queue count, same round-robin indirection
     init) — agreement with the NIC's counters is asserted below. *)
  let model_rss = Nic.Rss.create ~queues:nlanes () in
  let model = lane_model ~lanes:nlanes in
  let tap (f : Net.Frame.t) =
    if f.Net.Frame.udp.Net.Udp.dst_port = service_port then
      let lane =
        Nic.Steer.eval ~rss:(Nic.Rss.queue_of_frame model_rss) prog f
        mod nlanes
      in
      model_touch model ~lane ~key:(key_of_wire f)
  in
  let server =
    Common.make_server ~ncores:nlanes ~tap ~metrics ~steering:verified
      (Common.Bypass Coherence.Interconnect.pcie_enzian)
      setup
  in
  let rng = Sim.Rng.create ~seed:0xe20 in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  Workload.Arrivals.open_loop server.Common.engine rng ~rate_per_s:rate
    ~until:horizon (fun ~seq ->
      let key = Workload.Dist.zipf rng ~n:nkeys ~s:zipf_s in
      let flow = Sim.Rng.int rng ~bound:nflows in
      Harness.Traffic.inject server.Common.recorder server.Common.driver
        ~rpc_id:seq ~service_id ~method_id:0 ~port:service_port
        ~client:(Harness.Traffic.client_endpoint ~idx:flow ())
        (key_blob key));
  let m =
    Common.measure ~name:prog.Nic.Steer.name ~horizon server
  in
  (* In-run equivalence assertion: the NIC's compiled program counted
     exactly the lanes the reference evaluator predicts. *)
  Array.iteri
    (fun lane predicted ->
      let counted =
        Obs.Metrics.counter_value metrics (Printf.sprintf "steer_lane_%d" lane)
      in
      if counted <> predicted then
        failwith
          (Printf.sprintf
             "E20: lane %d: NIC steered %d frames but the reference \
              evaluator predicts %d — compiled/declarative divergence"
             lane counted predicted))
    model.lane_counts;
  (m, model, Nic.Steer_verify.cost verified)

let lane_spread m =
  let mn = Array.fold_left min max_int m.lane_counts
  and mx = Array.fold_left max 0 m.lane_counts in
  Printf.sprintf "%d..%d" mn mx

let run_single () =
  Common.section "E20a Steering: key-hash affinity vs. RSS (Zipf keys, 1 host)";
  let horizon = Sim.Units.ms 10 in
  let rate = 300_000. in
  Common.note
    "%d keys, Zipf s=%.1f, %d client flows, %d lanes, %d-slot direct-mapped \
     key cache per lane; key bytes at payload offset %d"
    nkeys zipf_s nflows nlanes cache_slots key_off;
  let rss_m, rss_model, rss_cost =
    run_config ~horizon ~rate Nic.Steer.rss_all
  in
  let aff_m, aff_model, aff_cost =
    run_config ~horizon ~rate (affinity_program ~lanes:nlanes)
  in
  Common.table
    ~header:
      [ "program"; "cost/pkt"; "sent"; "done"; "p50"; "p99"; "cache hit";
        "lane spread" ]
    [
      [
        "rss_all"; Printf.sprintf "%d ns" rss_cost;
        string_of_int rss_m.Common.sent; string_of_int rss_m.Common.completed;
        Common.ns rss_m.Common.p50; Common.ns rss_m.Common.p99;
        pct (hit_pct rss_model); lane_spread rss_model;
      ];
      [
        "key_affinity"; Printf.sprintf "%d ns" aff_cost;
        string_of_int aff_m.Common.sent; string_of_int aff_m.Common.completed;
        Common.ns aff_m.Common.p50; Common.ns aff_m.Common.p99;
        pct (hit_pct aff_model); lane_spread aff_model;
      ];
    ];
  Common.note
    "NIC lane counters == reference evaluator on every lane (asserted in-run)";
  Common.note
    "steering off charges 0 ns/pkt; both programs above carry their \
     statically verified cost";
  if hit_pct aff_model > hit_pct rss_model then
    Common.note
      "[shape holds] key-affinity locality: %s cache hits vs %s under RSS"
      (pct (hit_pct aff_model))
      (pct (hit_pct rss_model))
  else
    Common.note "[SHAPE VIOLATION] affinity (%s) <= rss (%s) on cache hits"
      (pct (hit_pct aff_model))
      (pct (hit_pct rss_model))

(* ---------- part (b): verified steering on rack hosts ---------- *)

let rack_hosts = 4
let rack_lanes = 4

let run_rack () =
  Common.section "E20b Steering on the rack: verified programs on every host";
  let horizon = Sim.Units.ms 8 in
  let drain = Sim.Units.ms 4 in
  let rate = 200_000. in
  let fabric = Cluster.Fabric.create ~hosts:rack_hosts () in
  let engine = Cluster.Fabric.engine fabric in
  let sanitize = Common.engine_sanitizer engine in
  let setup = Workload.Scenario.echo_fleet ~n:1 ~handler_time () in
  let service_port = Workload.Scenario.port_of setup ~service_idx:0 in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let env = steer_env ~queues:rack_lanes in
  let prog = affinity_program ~lanes:rack_lanes in
  let host_metrics = Array.init rack_hosts (fun _ -> Obs.Metrics.create ()) in
  let servers =
    Array.init rack_hosts (fun h ->
        let verified = verify_or_die ~env prog in
        let server =
          Common.make_server ~ncores:rack_lanes
            ~engine ~egress:(Cluster.Fabric.host_egress fabric h)
            ~metrics:host_metrics.(h) ~steering:verified
            (Common.Bypass Coherence.Interconnect.pcie_enzian)
            setup
        in
        Cluster.Fabric.connect_host fabric h
          ~ingress:server.Common.driver.Harness.Driver.ingress;
        server)
  in
  (* One client behind the uplink; calls are re-addressed to hosts
     round-robin (an explicit counter — the client recycles rpc-id
     slots, so ids would skew low) and given a per-flow src endpoint
     so in-host RSS (were it active) would spread by flow. *)
  let next = ref 0 in
  let send (frame : Net.Frame.t) =
    let n = !next in
    incr next;
    let host = n mod rack_hosts in
    let dst =
      Cluster.Fabric.host_endpoint fabric host
        ~port:frame.Net.Frame.udp.Net.Udp.dst_port
    in
    let src = Harness.Traffic.client_endpoint ~idx:(n mod nflows) () in
    Cluster.Fabric.uplink_send fabric
      (Net.Frame.make ~src ~dst frame.Net.Frame.payload)
  in
  let client = Harness.Client.create engine ~send () in
  Cluster.Fabric.connect_uplink fabric (Harness.Client.on_reply client);
  let rng = Sim.Rng.create ~seed:0xe20b in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      let key = Workload.Dist.zipf rng ~n:nkeys ~s:zipf_s in
      Harness.Client.call client ~service_id ~method_id:0 ~port:service_port
        (key_blob key)
        (fun _ -> ()));
  Cluster.Fabric.run fabric ~until:(horizon + drain);
  Array.iter Common.close servers;
  Option.iter Sanitize.finish sanitize;
  Common.note "%d hosts x %d lanes, %s keyed calls via the uplink" rack_hosts
    rack_lanes (Common.rate_str rate);
  let digest = ref 0 in
  Common.table
    ~header:[ "host"; "lane 0"; "lane 1"; "lane 2"; "lane 3"; "steered" ]
    (List.init rack_hosts (fun h ->
         let lane i =
           Obs.Metrics.counter_value host_metrics.(h)
             (Printf.sprintf "steer_lane_%d" i)
         in
         let total =
           Obs.Metrics.counter_value host_metrics.(h) "steer_decisions"
         in
         digest := !digest lxor ((total + (h * 7919)) * 2654435761);
         string_of_int h
         :: List.init rack_lanes (fun i -> string_of_int (lane i))
         @ [ string_of_int total ]));
  Common.note "client: sent %d, completed %d, outstanding %d"
    (Harness.Client.sent client)
    (Harness.Client.completed client)
    (Harness.Client.outstanding client);
  Common.note "undeliverable %d, lane digest %d"
    (Cluster.Fabric.undeliverable fabric)
    (!digest land 0x3fffffff)

let run () =
  run_single ();
  run_rack ()
