(* Shared infrastructure for the experiment harness: build a server
   stack of a given flavour, drive it with a workload, and collect
   latency/cycle measurements. *)

type flavour =
  | Lauberhorn of Lauberhorn.Config.t * Lauberhorn.Sched_mirror.mode
  | Linux of Coherence.Interconnect.profile
  | Bypass of Coherence.Interconnect.profile
  | Static of Lauberhorn.Config.t
      (** CC-NIC/nanoPU ablation: coherent delivery, traditional static
          split. *)

let flavour_name = function
  | Lauberhorn (cfg, Lauberhorn.Sched_mirror.Push) ->
      "lauberhorn/" ^ cfg.Lauberhorn.Config.profile.Coherence.Interconnect.name
  | Lauberhorn (_, Lauberhorn.Sched_mirror.Query) -> "lauberhorn/no-mirror"
  | Linux p -> "linux/" ^ p.Coherence.Interconnect.name
  | Bypass p -> "bypass/" ^ p.Coherence.Interconnect.name
  | Static _ -> "ccnic-static"

type server = {
  engine : Sim.Engine.t;
  driver : Harness.Driver.t;
  recorder : Harness.Recorder.t;
  tracer : Obs.Tracer.t;
  setup : Workload.Scenario.setup;
  flush : unit -> unit;  (* finalize ledgers (bypass spin windows) *)
  lauberhorn : Lauberhorn.Stack.t option;
  sanitize : Sanitize.t option;
  kill_service : service_id:int -> unit;
      (* crash the process hosting the service, flavour-appropriately *)
  restart_service : service_id:int -> unit;
}

(* [LAUBERHORN_SANITIZE=1] arms the runtime sanitizers for every
   server built through this harness without touching experiment code:
   CI runs the determinism-critical experiments once normally and once
   sanitized. Reading an env var is deterministic for a fixed
   environment, so sanitized runs are as reproducible as plain ones. *)
let sanitize_env_enabled () =
  match Sys.getenv_opt "LAUBERHORN_SANITIZE" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* The sanitizer session of a caller that owns [engine] and hands it to
   [make_server]: under LAUBERHORN_SANITIZE, a session with the
   event-loop watch attached to [engine]. An engine has one monitor, and
   [make_server] watches only an engine it created itself, so an engine
   that many servers share (a rack's) is watched once, by its owner. *)
let engine_sanitizer engine =
  if sanitize_env_enabled () then begin
    let z = Sanitize.create engine in
    Sanitize.Engine_watch.attach z engine;
    Some z
  end
  else None

(* Build a server hosting [setup]'s services under the given flavour.
   [engine]/[egress] default to a private engine recording into the
   server's own recorder; lossy runs supply both (the chaos harness
   owns the engine and interposes its faulty reply link). [fault]
   arms the stack-side choke points (DMA completions for the
   baselines, coherence fills for Lauberhorn). [tap] observes every
   frame crossing the server's edge — ingress requests and egress
   responses — e.g. for pcap capture. The server's tracer starts
   disabled; enable it to collect per-RPC stage spans. [sanitize]
   defaults to a session of the server's own under LAUBERHORN_SANITIZE;
   it watches the event loop only of an engine [make_server] created
   (see [engine_sanitizer]). *)
let make_server ?(ncores = 8) ?(min_workers = 1) ?(max_workers = 2) ?engine
    ?(fault = Fault.Plan.none) ?egress ?tap ?metrics ?sanitize ?steering
    flavour setup =
  (match (steering, flavour) with
  | Some _, (Lauberhorn _ | Linux _ | Static _) ->
      invalid_arg
        "Common.make_server: verified steering programs require the Bypass \
         flavour (the poll-mode stack where any lane serves any port)"
  | _ -> ());
  let own_engine, engine =
    match engine with
    | Some e -> (false, e)
    | None -> (true, Sim.Engine.create ())
  in
  let sanitize =
    match sanitize with
    | Some _ -> sanitize
    | None ->
        if sanitize_env_enabled () then Some (Sanitize.create engine)
        else None
  in
  (match sanitize with
  | Some z when own_engine -> Sanitize.Engine_watch.attach z engine
  | Some _ | None -> ());
  let recorder = Harness.Recorder.create engine in
  let tracer = Obs.Tracer.create () in
  let egress =
    match egress with Some e -> e | None -> Harness.Recorder.egress recorder
  in
  let egress =
    match tap with
    | None -> egress
    | Some tap -> fun f -> tap f; egress f
  in
  let lauberhorn_stack ~binding ?mirror_mode ~min_workers ~max_workers cfg =
    let s =
      Lauberhorn.Stack.create engine ~cfg ~ncores ~binding ?mirror_mode ~fault
        ?metrics ?sanitize ~tracer
        ~services:
          (List.mapi
             (fun i def ->
               Lauberhorn.Stack.spec ~min_workers ~max_workers
                 ~port:setup.Workload.Scenario.ports.(i) def)
             setup.Workload.Scenario.defs)
        ~egress ()
    in
    ( Lauberhorn.Stack.driver s,
      (fun () -> ()),
      (* [None] for the ablation: the handled-RPC crash trigger
         attaches to Lauberhorn runs only. *)
      (match binding with
      | Lauberhorn.Stack.Os_integrated -> Some s
      | Lauberhorn.Stack.Static -> None),
      (fun ~service_id -> Lauberhorn.Stack.kill_service s ~service_id),
      fun ~service_id -> Lauberhorn.Stack.restart_service s ~service_id )
  in
  let driver, flush, lauberhorn, kill_service, restart_service =
    match flavour with
    | Linux profile ->
        let s =
          Baseline.Linux_stack.create engine ~profile ~ncores ~fault ?metrics
            ?sanitize ~tracer
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Linux_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Baseline.Linux_stack.driver s,
          (fun () -> ()),
          None,
          (fun ~service_id -> Baseline.Linux_stack.kill_service s ~service_id),
          fun ~service_id ->
            Baseline.Linux_stack.restart_service s ~service_id )
    | Bypass profile ->
        let s =
          Baseline.Bypass_stack.create engine ~profile ~ncores ~fault ?metrics
            ?sanitize ?steering ~tracer
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Bypass_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Baseline.Bypass_stack.driver s,
          (fun () -> Baseline.Bypass_stack.flush_spin s),
          None,
          (fun ~service_id -> Baseline.Bypass_stack.kill_service s ~service_id),
          fun ~service_id ->
            Baseline.Bypass_stack.restart_service s ~service_id )
    | Lauberhorn (cfg, mirror_mode) ->
        lauberhorn_stack ~binding:Lauberhorn.Stack.Os_integrated ~mirror_mode
          ~min_workers ~max_workers cfg
    | Static cfg ->
        (* The ablation keeps one pinned worker per service. *)
        lauberhorn_stack ~binding:Lauberhorn.Stack.Static ~min_workers:1
          ~max_workers:1 cfg
  in
  let driver =
    match tap with
    | None -> driver
    | Some tap ->
        let inner = driver.Harness.Driver.ingress in
        { driver with Harness.Driver.ingress = (fun f -> tap f; inner f) }
  in
  {
    engine;
    driver;
    recorder;
    tracer;
    setup;
    flush;
    lauberhorn;
    sanitize;
    kill_service;
    restart_service;
  }

let inject_blob server ~seq ~service_idx ~bytes =
  let setup = server.setup in
  Harness.Traffic.inject server.recorder server.driver
    ~client:Harness.Traffic.default_client
    ~rpc_id:seq
    ~service_id:(Workload.Scenario.service_id_of setup ~service_idx)
    ~method_id:0
    ~port:(Workload.Scenario.port_of setup ~service_idx)
    (Rpc.Value.Blob (Bytes.make bytes 'w'))

type measurement = {
  name : string;
  sent : int;
  completed : int;
  p50 : int;
  p90 : int;
  p99 : int;
  mean : float;
  max : int;
  throughput : float;  (* completions per second over the window *)
  user_ns : int;
  kernel_ns : int;
  spin_ns : int;
  stall_ns : int;
  window : Sim.Units.duration;
  counters : (string * int) list;
}

(* Close [server] once its run is over: finalize its ledgers, then run
   its sanitizer session's end-of-run checks. *)
let close server =
  server.flush ();
  Option.iter Sanitize.finish server.sanitize

(* The measurement of a run run to [horizon + drain] and closed: its
   ledger's [sent], [completed] and [latencies] over [horizon], the CPU
   ledger summed over cores, and the stack's counters. *)
let finish_run ~sent ~completed ~latencies ~name ~horizon ~drain server =
  let acct =
    Osmodel.Cpu_account.merge
      (Osmodel.Kernel.accounts server.driver.Harness.Driver.kernel)
  in
  let q p = if completed = 0 then 0 else Sim.Histogram.quantile latencies p in
  {
    name;
    sent;
    completed;
    p50 = q 0.5;
    p90 = q 0.9;
    p99 = q 0.99;
    mean = Sim.Histogram.mean latencies;
    max = (if completed = 0 then 0 else Sim.Histogram.max_value latencies);
    throughput = float_of_int completed /. Sim.Units.to_float_s horizon;
    user_ns = Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.User;
    kernel_ns = Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.Kernel;
    spin_ns = Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.Spin;
    stall_ns = Osmodel.Cpu_account.charged acct Osmodel.Cpu_account.Stall;
    window = horizon + drain;
    counters =
      Sim.Counter.to_list server.driver.Harness.Driver.counters
      @ Obs.Metrics.to_list server.driver.Harness.Driver.metrics;
  }

(* Run [server] to [horizon + drain], close it and measure what its
   recorder saw at the NIC's edge. *)
let measure ?(drain = Sim.Units.ms 10) ~name ~horizon server =
  Sim.Engine.run server.engine ~until:(horizon + drain);
  close server;
  let r = server.recorder in
  finish_run ~sent:(Harness.Recorder.sent r)
    ~completed:(Harness.Recorder.completed r)
    ~latencies:(Harness.Recorder.latencies r) ~name ~horizon ~drain server

let counter m name =
  match List.assoc_opt name m.counters with Some v -> v | None -> 0

(* A standard open-loop run: [nservices] echo services, Poisson
   arrivals, optional Zipf skew, fixed payload. *)
let open_loop_run ?(ncores = 8) ?(nservices = 1) ?(min_workers = 1)
    ?(max_workers = 2) ?(payload = 64) ?(zipf_s = 0.)
    ?(handler_time = Sim.Units.ns 500) ?(seed = 42)
    ?(horizon = Sim.Units.ms 30) ~rate flavour =
  let setup = Workload.Scenario.echo_fleet ~n:nservices ~handler_time () in
  let server = make_server ~ncores ~min_workers ~max_workers flavour setup in
  let rng = Sim.Rng.create ~seed in
  let zipf =
    if zipf_s > 0. then
      Some (Workload.Dist.Zipf.create ~n:nservices ~s:zipf_s)
    else None
  in
  Workload.Arrivals.open_loop server.engine rng ~rate_per_s:rate
    ~until:horizon (fun ~seq ->
      let service_idx =
        match zipf with
        | Some z -> Workload.Rpc_mix.zipf_pick rng z
        | None when nservices = 1 -> 0
        | None -> Workload.Rpc_mix.uniform_pick rng ~services:nservices
      in
      inject_blob server ~seq ~service_idx ~bytes:payload);
  measure ~name:(flavour_name flavour) ~horizon server

(* A lossy run's measurement, its chaos harness (for the timeline) and
   its server-fault injector. *)
type lossy = {
  m : measurement;
  chaos : Harness.Chaos.t;
  server_fault : Fault.Server_fault.t;
}

(* A lossy open-loop run: the same echo fleet, but driven through the
   chaos harness — requests and replies cross seeded fault links, the
   client retries with exponential backoff, and latency is measured
   client-side (so it includes retransmission delays), with the
   harness's stats and timeline digest among the counters. The plan
   also arms the stack-side choke points via [make_server ~fault] and
   crashes the first service by its server fault (on Lauberhorn,
   handled RPCs drive the count trigger). [sanitize] builds the run's
   sanitizer session on its engine; by default LAUBERHORN_SANITIZE
   decides. *)
let lossy_run ?(ncores = 4) ?(nservices = 1) ?(min_workers = 1)
    ?(max_workers = 2) ?(payload = 64) ?(handler_time = Sim.Units.ns 500)
    ?(seed = 42) ?(horizon = Sim.Units.ms 10) ?(drain = Sim.Units.ms 60)
    ?(timeout = Sim.Units.us 200) ?(retries = 20) ?(backoff = 1.5)
    ?(max_timeout = Sim.Units.ms 2) ?(jitter = 0.25)
    ?sanitize ~rate ~plan flavour =
  let setup = Workload.Scenario.echo_fleet ~n:nservices ~handler_time () in
  let engine = Sim.Engine.create () in
  let chaos =
    Harness.Chaos.create engine ~plan ~timeout ~retries ~backoff ~max_timeout
      ~jitter ()
  in
  let server =
    make_server ~ncores ~min_workers ~max_workers ~engine ~fault:plan
      ?sanitize:
        (match sanitize with
        | Some f -> Some (f engine)
        | None -> engine_sanitizer engine)
      ~egress:(Harness.Chaos.egress chaos) flavour setup
  in
  Harness.Chaos.connect chaos server.driver;
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let server_fault =
    Fault.Server_fault.install engine ~plan
      ~crash:(fun () -> server.kill_service ~service_id)
      ~restart:(fun () -> server.restart_service ~service_id)
  in
  Option.iter
    (fun s ->
      Lauberhorn.Stack.on_handled s (Fault.Server_fault.on_handled server_fault))
    server.lauberhorn;
  let rng = Sim.Rng.create ~seed in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq:_ ->
      let service_idx =
        if nservices = 1 then 0
        else Workload.Rpc_mix.uniform_pick rng ~services:nservices
      in
      Harness.Chaos.call chaos
        ~service_id:(Workload.Scenario.service_id_of setup ~service_idx)
        ~method_id:0
        ~port:(Workload.Scenario.port_of setup ~service_idx)
        (Rpc.Value.Blob (Bytes.make payload 'w')));
  Sim.Engine.run engine ~until:(horizon + drain);
  close server;
  let c = Harness.Chaos.client chaos in
  let m =
    finish_run ~sent:(Harness.Client.sent c)
      ~completed:(Harness.Client.completed c)
      ~latencies:(Harness.Client.latencies c) ~name:(flavour_name flavour)
      ~horizon ~drain server
  in
  let extra =
    Harness.Chaos.stats chaos
    @ [ ("timeline_digest", Harness.Chaos.timeline_digest chaos) ]
  in
  { m = { m with counters = m.counters @ extra }; chaos; server_fault }

(* A replayed-trace run over [nservices] echo services. *)
let replay_run ?(ncores = 8) ?(min_workers = 1) ?(max_workers = 2)
    ?(handler_time = Sim.Units.ns 500) ~events flavour =
  let nservices =
    1
    + List.fold_left
        (fun acc ev -> max acc ev.Workload.Trace_replay.service_idx)
        0 events
  in
  let setup = Workload.Scenario.echo_fleet ~n:nservices ~handler_time () in
  let server = make_server ~ncores ~min_workers ~max_workers flavour setup in
  let seq = ref 0 in
  Workload.Trace_replay.replay server.engine events (fun ev ->
      incr seq;
      inject_blob server ~seq:!seq
        ~service_idx:ev.Workload.Trace_replay.service_idx
        ~bytes:(min ev.Workload.Trace_replay.bytes 60_000));
  let horizon =
    match List.rev events with
    | last :: _ -> last.Workload.Trace_replay.at + Sim.Units.ms 1
    | [] -> Sim.Units.ms 1
  in
  measure ~name:(flavour_name flavour) ~horizon server

(* ---------- Artefacts ---------- *)

(* The directory named by the environment variable [var] (default
   artifacts/), created along with any missing parents. *)
let artefact_dir var =
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  let dir = Option.value (Sys.getenv_opt var) ~default:"artifacts" in
  mkdir_p dir;
  dir

(* The self-check on [text] as the rendering of [json]: it must parse
   strictly and give [json] back. *)
let json_verdict json text =
  match Obs.Json.parse text with
  | Ok v when Obs.Json.equal v json -> "strict parse + roundtrip ok"
  | Ok _ -> "PARSE MISMATCH"
  | Error e -> "PARSE ERROR: " ^ e

(* Write [json] to [file] on one line; returns its self-check verdict. *)
let write_json ~file json =
  let text = Obs.Json.to_string json in
  let oc = open_out file in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  json_verdict json text

(* The self-check on a capture: it must read back, and every frame in
   it must re-parse. *)
let pcap_verdict capture =
  match Obs.Pcap.records capture with
  | Error e -> "PCAP ERROR: " ^ e
  | Ok recs ->
      if
        List.for_all
          (fun (_, slice) -> Result.is_ok (Net.Frame.parse_slice slice))
          recs
      then Printf.sprintf "%d frames, all re-parse ok" (List.length recs)
      else "PCAP REPARSE FAILURE"

(* Write [pcap] to [file]; returns its self-check verdict. *)
let write_pcap ~file pcap =
  Obs.Pcap.write_file pcap ~file;
  pcap_verdict (Obs.Pcap.to_bytes pcap)

(* Sums [(key, amount)] pairs per key, keys in first-seen order. *)
let totals pairs =
  let order = ref [] in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (key, amount) ->
      match Hashtbl.find_opt sums key with
      | Some sum -> sum := !sum + amount
      | None ->
          Hashtbl.add sums key (ref amount);
          order := key :: !order)
    pairs;
  List.rev_map (fun key -> (key, !(Hashtbl.find sums key))) !order

(* ---------- Report formatting ---------- *)

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* [title] and its [lines] as one note, the lines indented under it. *)
let note_lines title lines =
  note "%s" (title ^ ":\n  " ^ String.concat "\n  " lines)

let table ~header rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    Format.printf "  ";
    List.iter2 (fun w cell -> Format.printf "%-*s  " w cell) widths row;
    Format.printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let ns v = Format.asprintf "%a" Sim.Units.pp_duration v
let rate_str v = Format.asprintf "%a" Sim.Units.pp_rate v
