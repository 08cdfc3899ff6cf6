(* E16 — a rack of Lauberhorn hosts exchanging traffic over a wire,
   E6-style load sweep.

   Eight simulated hosts on one engine, each a full Lauberhorn stack
   (own NIC pipeline, scheduler mirror, recorder). Hosts exchange a
   quarter of their traffic: a client arrival on host h targets a
   uniformly chosen remote host with probability 1/4, crossing the
   simulated rack wire (2 µs each way) as an event one wire latency
   later. Responses route back over the same wire, so remote RPCs pay
   two hops on top of end-system latency.

   Stdout carries the per-host results and the engine's event count;
   the gates diff it against a committed snapshot. Wall-clock per run
   is host noise, not simulation output, so it goes to stderr. *)

let hosts = 8
let wire = Sim.Units.us 2 (* rack wire one-way latency *)
let remote_frac = 0.25
let horizon = Sim.Units.ms 15
let drain = Sim.Units.ms 10
let rates = [ 100_000.; 300_000. ]

type host_result = {
  sent : int;
  completed : int;
  p50 : int;
  p99 : int;
}

(* One full rack run: a fresh engine, stacks and arrival schedules.
   Returns per-host results plus the engine's event count. *)
let rack_run ~rate () =
  let engine = Sim.Engine.create () in
  let sanitize =
    if Common.sanitize_env_enabled () then Some (Sanitize.create engine)
    else None
  in
  let cross f = ignore (Sim.Engine.schedule_after engine ~after:wire f) in
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
      cross (fun () -> Harness.Recorder.egress (server o).Common.recorder frame)
  in
  for h = 0 to hosts - 1 do
    servers.(h) <-
      Some
        (Common.make_server ~ncores:4 ~max_workers:3 ~engine ?sanitize
           ~egress:(egress h)
           (Common.Lauberhorn
              (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
           (Workload.Scenario.echo_fleet ~n:1
              ~handler_time:(Sim.Units.ns 500) ()))
  done;
  let setup = (server 0).Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let port = Workload.Scenario.port_of setup ~service_idx:0 in
  for h = 0 to hosts - 1 do
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
             rack wire and enters the destination NIC one wire latency
             later *)
          Harness.Recorder.note_sent (server h).Common.recorder ~rpc_id;
          cross (fun () -> (server dst).Common.driver.Harness.Driver.ingress frame)
        end)
  done;
  Sim.Engine.run engine ~until:(horizon + drain);
  for h = 0 to hosts - 1 do
    (server h).Common.flush ()
  done;
  Option.iter Sanitize.finish sanitize;
  let per_host =
    Array.init hosts (fun h ->
        let r = (server h).Common.recorder in
        let hist = Harness.Recorder.latencies r in
        let completed = Harness.Recorder.completed r in
        let q p = if completed = 0 then 0 else Sim.Histogram.quantile hist p in
        {
          sent = Harness.Recorder.sent r;
          completed;
          p50 = q 0.5;
          p99 = q 0.99;
        })
  in
  (per_host, Sim.Engine.events_processed engine)

let host_line h r =
  Printf.sprintf "host%d sent=%d done=%d p50=%s p99=%s" h r.sent r.completed
    (Common.ns r.p50) (Common.ns r.p99)

(* Wall-clock is measured for the stderr report only; it never reaches
   stdout, which must stay byte-identical across machines. *)
let[@nondet_ok] wallclock f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run () =
  Common.section "E16: rack on one engine — 8 hosts, wire hand-offs";
  List.iter
    (fun rate ->
      Common.note "offered load %s per host, %d hosts, %.0f%% remote"
        (Common.rate_str rate) hosts (100. *. remote_frac);
      let (per_host, events), secs =
        wallclock (fun () -> rack_run ~rate ())
      in
      Common.note "events=%d" events;
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
  Common.note "(each wire hand-off lands one wire latency later); wall-clock";
  Common.note "is reported on stderr, outside the diffed stream."
