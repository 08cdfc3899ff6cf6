(* E9 — NIC-driven core scaling (section 5.2).

   Offered load steps 50k -> 600k -> 50k requests/s. The NIC's load
   statistics drive worker activation (kernel-dispatch messages) on the
   way up; TRYAGAIN-yield retires workers on the way down. We sample
   the service's active worker count over time. *)

let phase = Sim.Units.ms 20
let sample_every = Sim.Units.ms 2

let run () =
  Common.section "E9: NIC-driven core scaling under a load step";
  let setup =
    Workload.Scenario.echo_fleet ~n:1 ~handler_time:(Sim.Units.us 2) ()
  in
  let server =
    Common.make_server ~ncores:8 ~min_workers:1 ~max_workers:6
      (Common.Lauberhorn
         ( Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
             (Sim.Units.us 500),
           Lauberhorn.Sched_mirror.Push ))
      setup
  in
  let stack =
    match server.Common.lauberhorn with Some s -> s | None -> assert false
  in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let rng = Sim.Rng.create ~seed:7 in
  let seq = ref 0 in
  Workload.Arrivals.step_rates server.Common.engine rng
    ~steps:[ (phase, 50_000.); (phase, 600_000.); (phase, 50_000.) ]
    (fun ~seq:_ ->
      incr seq;
      Common.inject_blob server ~seq:!seq ~service_idx:0 ~bytes:64);
  let samples = ref [] in
  let rec sample () =
    samples :=
      ( Sim.Engine.now server.Common.engine,
        Lauberhorn.Stack.active_workers stack ~service_id )
      :: !samples;
    if Sim.Engine.now server.Common.engine < 3 * phase then
      ignore
        (Sim.Engine.schedule_after server.Common.engine ~after:sample_every
           sample)
  in
  ignore (Sim.Engine.schedule_after server.Common.engine ~after:1 sample);
  let m = Common.measure ~name:"scaling" ~horizon:(3 * phase) server in
  Common.table
    ~header:[ "time"; "offered load"; "active workers" ]
    (List.rev_map
       (fun (t, w) ->
         let load =
           if t < phase then "50k/s"
           else if t < 2 * phase then "600k/s"
           else "50k/s"
         in
         [ Common.ns t; load; String.make (max 1 w) '#' ^ Printf.sprintf " (%d)" w ])
       !samples);
  let peak = List.fold_left (fun acc (_, w) -> max acc w) 0 !samples in
  let final = match !samples with (_, w) :: _ -> w | [] -> 0 in
  let scales = { Common.id = "E9.scaling"; holds = peak >= 3 && final <= 2 } in
  Common.note "completed %d/%d; activations %d, deactivations %d"
    m.Common.completed m.Common.sent
    (Common.counter m "worker_activate")
    (Common.counter m "worker_deactivate");
  Common.note
    "paper expectation: workers scale up with the step and retire after.";
  Common.note "measured: peak %d workers, back to %d after the step%s" peak
    final
    (Common.verdict scales);
  [ scales ]
