(* E16 — the sharded conservative-PDES engine over a rack of
   Lauberhorn hosts, E6-style load sweep.

   Eight simulated hosts, each a full Lauberhorn stack (own engine,
   NIC pipeline, scheduler mirror, recorder). Hosts exchange a quarter
   of their traffic: a client arrival on host h targets a uniformly
   chosen remote host with probability 1/4, crossing the simulated
   rack wire (2 µs each way — also the conservative lookahead) via
   {!Sim.Shard_engine.post}. Responses route back over the same wire,
   so remote RPCs pay two hops on top of end-system latency.

   Stdout carries the per-host results and the window counts (events
   per window is the work each window-boundary merge is spread over);
   the gates diff it against a committed snapshot. Wall-clock per run
   is host noise, not simulation output, so it goes to stderr. *)

let hosts = 8
let wire = Sim.Units.us 2 (* rack wire one-way latency = lookahead *)
let remote_frac = 0.25
let horizon = Sim.Units.ms 15
let drain = Sim.Units.ms 10
let rates = [ 100_000.; 300_000. ]

type host_result = {
  sent : int;
  completed : int;
  p50 : int;
  p99 : int;
  events : int;
}

(* One full rack run: fresh engines, stacks and arrival schedules.
   Returns per-host results plus (windows, merged messages). *)
let rack_run ~rate () =
  let engines = Array.init hosts (fun _ -> Sim.Engine.create ()) in
  let shard = Sim.Shard_engine.create ~lookahead:wire engines in
  let servers = Array.make hosts None in
  let server h =
    match servers.(h) with
    | Some s -> s
    | None -> invalid_arg "E16: server used before setup"
  in
  (* Responses carry the origin's client port (40000 + origin index):
     egress on the serving host either records locally or ships the
     frame back across the wire to the origin's recorder. *)
  let egress h frame =
    let o = frame.Net.Frame.udp.Net.Udp.dst_port - 40_000 in
    if o = h || o < 0 || o >= hosts then
      Harness.Recorder.egress (server h).Common.recorder frame
    else
      Sim.Shard_engine.post shard ~src:h ~dst:o
        ~at:(Sim.Engine.now engines.(h) + wire)
        (fun () -> Harness.Recorder.egress (server o).Common.recorder frame)
  in
  Array.iteri
    (fun h engine ->
      servers.(h) <-
        Some
          (Common.make_server ~ncores:4 ~max_workers:3 ~engine
             ~egress:(egress h)
             (Common.Lauberhorn
                (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
             (Workload.Scenario.echo_fleet ~n:1
                ~handler_time:(Sim.Units.ns 500) ())))
    engines;
  let setup = (server 0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let port = Workload.Scenario.port_of setup ~service_idx:0 in
  Array.iteri
    (fun h engine ->
      (* per-host seed: arrival streams are independent of the other
         hosts *)
      let rng = Sim.Rng.create ~seed:(1000 + h) in
      Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
        (fun ~seq ->
          let rpc_id = Int64.of_int ((h lsl 32) lor seq) in
          let client = Harness.Traffic.client_endpoint ~idx:h () in
          let remote = Sim.Rng.float rng < remote_frac in
          if not remote then
            Harness.Traffic.inject (server h).Common.recorder
              (server h).Common.driver ~rpc_id ~service_id ~method_id:0 ~port
              ~client
              (Rpc.Value.Blob (Bytes.make 64 'w'))
          else begin
            let dst = (h + 1 + Sim.Rng.int rng ~bound:(hosts - 1)) mod hosts in
            let frame =
              Harness.Traffic.request_frame ~rpc_id ~service_id ~method_id:0
                ~port ~client
                (Rpc.Value.Blob (Bytes.make 64 'w'))
            in
            (* stamp at the origin now; the request frame crosses the
               rack wire and enters the destination NIC one wire
               latency later *)
            Harness.Recorder.note_sent (server h).Common.recorder ~rpc_id;
            Sim.Shard_engine.post shard ~src:h ~dst
              ~at:(Sim.Engine.now engine + wire)
              (fun () -> (server dst).Common.driver.Harness.Driver.ingress frame)
          end))
    engines;
  Sim.Shard_engine.run shard ~until:(horizon + drain);
  let per_host =
    Array.init hosts (fun h ->
        let s = server h in
        s.Common.flush ();
        (match s.Common.sanitize with
        | None -> ()
        | Some z -> Sanitize.finish z);
        let r = s.Common.recorder in
        let hist = Harness.Recorder.latencies r in
        let completed = Harness.Recorder.completed r in
        let q p = if completed = 0 then 0 else Sim.Histogram.quantile hist p in
        {
          sent = Harness.Recorder.sent r;
          completed;
          p50 = q 0.5;
          p99 = q 0.99;
          events = Sim.Engine.events_processed engines.(h);
        })
  in
  (per_host, Sim.Shard_engine.windows_run shard,
   Sim.Shard_engine.messages_merged shard)

let host_line h r =
  Printf.sprintf "host%d sent=%d done=%d p50=%s p99=%s events=%d" h r.sent
    r.completed (Common.ns r.p50) (Common.ns r.p99) r.events

(* Wall-clock is measured for the stderr report only; it never reaches
   stdout, which must stay byte-identical across machines. *)
let[@nondet_ok] wallclock f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run () =
  Common.section "E16: sharded PDES rack — 8 hosts, conservative windows";
  List.iter
    (fun rate ->
      Common.note "offered load %s per host, %d hosts, %.0f%% remote"
        (Common.rate_str rate) hosts (100. *. remote_frac);
      let (per_host, windows, merged), secs =
        wallclock (fun () -> rack_run ~rate ())
      in
      let events = Array.fold_left (fun a r -> a + r.events) 0 per_host in
      Common.note "windows=%d merged=%d events/window=%d" windows merged
        (if windows = 0 then 0 else events / windows);
      Common.note "%s"
        ("per-host:\n  "
        ^ String.concat "\n  " (Array.to_list (Array.mapi host_line per_host))
        );
      (* stderr: machine-local wall clock, outside the diffed stream *)
      Printf.eprintf "  [e16] rate=%s wall=%.2fs\n%!" (Common.rate_str rate)
        secs)
    rates;
  Common.note
    "paper expectation: per-host results are a pure function of the seeds";
  Common.note "(conservative lookahead = wire latency); wall-clock is";
  Common.note "reported on stderr, outside the diffed stream."
