(* E3 — Figure 5: dispatch-path comparison.

   Hot path: the target process is parked on its endpoint — the NIC
   answers a stalled load and the handler starts with no kernel
   involvement. Cold path: the process is not running — the request
   goes to a kernel dispatcher thread's CONTROL lines, which wakes a
   worker (the Figure 5 slow path). Baseline: the Linux dispatch loop
   (interrupt, softirq, socket wake, context switch). Ablation: the
   same fast path when the NIC cannot mirror scheduling state and must
   query the host per dispatch. *)

(* 200 one-shot requests, 1 ms apart. *)
let spacing = Sim.Units.ms 1
let shots = 200

(* The one-shot series on [flavour]; [min_workers] matters to the
   Lauberhorn flavours only. *)
let one_shot_latency ~min_workers flavour =
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server = Common.make_server ~ncores:4 ~min_workers flavour setup in
  for i = 1 to shots do
    ignore
      (Sim.Engine.schedule_at server.Common.engine
         ~at:(i * spacing)
         (fun () -> Common.inject_blob server ~seq:i ~service_idx:0 ~bytes:64))
  done;
  Common.measure ~name:(Common.flavour_name flavour)
    ~horizon:((shots + 2) * spacing) server

let run () =
  Common.section "E3 (Figure 5): dispatch paths — hot, cold, Linux loop";
  (* Hot: worker resident and parked between 1 ms-spaced shots. *)
  let hot =
    one_shot_latency ~min_workers:1
      (Common.Lauberhorn
         (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
  in
  (* Cold: workers deactivate between shots (short TRYAGAIN timeout so
     the idle worker leaves its core well inside the 1 ms spacing; the
     timeout does not change dispatch cost, only idle behaviour). *)
  let cold_cfg =
    Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian (Sim.Units.us 50)
  in
  let cold =
    one_shot_latency ~min_workers:0
      (Common.Lauberhorn (cold_cfg, Lauberhorn.Sched_mirror.Push))
  in
  (* Ablation: no scheduling-state mirror; NIC queries the host. *)
  let query =
    one_shot_latency ~min_workers:1
      (Common.Lauberhorn
         (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Query))
  in
  let linux =
    one_shot_latency ~min_workers:1
      (Common.Linux Coherence.Interconnect.pcie_enzian)
  in
  Common.table
    ~header:[ "dispatch path"; "completed"; "p50"; "p99"; "fast/cold counts" ]
    [
      [
        "lauberhorn hot (fast path)";
        string_of_int hot.Common.completed;
        Common.ns hot.Common.p50;
        Common.ns hot.Common.p99;
        Printf.sprintf "fast=%d cold=%d"
          (Common.counter hot "fast_path")
          (Common.counter hot "cold_path");
      ];
      [
        "lauberhorn cold (kernel dispatch)";
        string_of_int cold.Common.completed;
        Common.ns cold.Common.p50;
        Common.ns cold.Common.p99;
        Printf.sprintf "fast=%d cold=%d"
          (Common.counter cold "fast_path")
          (Common.counter cold "cold_path");
      ];
      [
        "lauberhorn hot, no mirror (query)";
        string_of_int query.Common.completed;
        Common.ns query.Common.p50;
        Common.ns query.Common.p99;
        Printf.sprintf "fast=%d cold=%d"
          (Common.counter query "fast_path")
          (Common.counter query "cold_path");
      ];
      [
        "linux dispatch loop";
        string_of_int linux.Common.completed;
        Common.ns linux.Common.p50;
        Common.ns linux.Common.p99;
        "--";
      ];
    ];
  Common.note
    "paper expectation: hot path needs no kernel at all; the cold path";
  Common.note
    "costs one activation (wake + switch) and still undercuts the Linux";
  Common.note "loop; mirroring beats querying per dispatch.";
  let order =
    {
      Common.id = "E3.dispatch_order";
      holds =
        hot.Common.p50 < cold.Common.p50
        && cold.Common.p50 < linux.Common.p50
        && hot.Common.p50 < query.Common.p50;
    }
  in
  Common.note "measured: hot %s < cold %s < linux %s; query %s%s"
    (Common.ns hot.Common.p50) (Common.ns cold.Common.p50)
    (Common.ns linux.Common.p50) (Common.ns query.Common.p50)
    (Common.verdict order);
  [ order ]
