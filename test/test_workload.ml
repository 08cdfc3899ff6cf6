(* Tests for workload generation: distributions, arrival processes,
   RPC mixes, and scenario builders. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let sample_mean dist rng n =
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Workload.Dist.sample dist rng
  done;
  !sum /. float_of_int n

(* ---------- Dist ---------- *)

let test_dist_means_match_analytic () =
  let rng = Sim.Rng.create ~seed:1 in
  List.iter
    (fun dist ->
      let analytic = Workload.Dist.mean dist in
      let empirical = sample_mean dist rng 200_000 in
      let rel = Float.abs (empirical -. analytic) /. analytic in
      if rel > 0.05 then
        Alcotest.failf "%s: analytic %f vs empirical %f"
          (Format.asprintf "%a" Workload.Dist.pp dist)
          analytic empirical)
    [
      Workload.Dist.Constant 7.;
      Workload.Dist.Uniform (2., 10.);
      Workload.Dist.Exponential 42.;
      Workload.Dist.Lognormal (3., 0.5);
      Workload.Dist.Bimodal (0.7, Workload.Dist.Constant 1., Workload.Dist.Constant 11.);
    ]

let test_dist_pareto_tail () =
  let rng = Sim.Rng.create ~seed:2 in
  let d = Workload.Dist.Pareto (100., 1.5) in
  for _ = 1 to 10_000 do
    if Workload.Dist.sample d rng < 100. then
      Alcotest.fail "pareto below scale"
  done;
  checkb "infinite mean for alpha<=1" true
    (Workload.Dist.mean (Workload.Dist.Pareto (1., 0.9)) = infinity)

let test_dist_validate () =
  checkb "good" true (Workload.Dist.validate (Workload.Dist.Exponential 1.) = Ok ());
  checkb "bad exp" true
    (match Workload.Dist.validate (Workload.Dist.Exponential 0.) with
    | Error _ -> true
    | Ok () -> false);
  checkb "bad nested" true
    (match
       Workload.Dist.validate
         (Workload.Dist.Bimodal
            (0.5, Workload.Dist.Constant 1., Workload.Dist.Uniform (5., 2.)))
     with
    | Error _ -> true
    | Ok () -> false)

let test_zipf_skew () =
  let rng = Sim.Rng.create ~seed:3 in
  let counts = Array.make 10 0 in
  let zipf = Workload.Dist.Zipf.create ~n:10 ~s:1.0 in
  for _ = 1 to 100_000 do
    let r = Workload.Dist.Zipf.draw zipf rng in
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 0 most popular" true (counts.(0) > counts.(1));
  checkb "monotone-ish" true (counts.(1) > counts.(5));
  checkb "all ranks appear" true (Array.for_all (fun c -> c > 0) counts);
  (* For s=1, n=10: p(0) = 1/H_10 ~ 0.34. *)
  let p0 = float_of_int counts.(0) /. 100_000. in
  checkb "zipf head mass" true (p0 > 0.30 && p0 < 0.38)

(* The first 1,000 ranks of a table at seeds 1 to 3, for (n, s) =
   (32, 1.6) as in E7, (512, 1.1) as in E20 and (10, 1.0) as above:
   the first 16 verbatim, and all 1,000 folded into [h <- 31 h + rank]
   (mod 2^46). Captured from the draws of the cached-CDF sampler the
   table replaced, so a run's ranks, and every snapshot built on them,
   stay the same. *)
let zipf_reference =
  [
    (32, 1.6, 1, [ 3; 0; 0; 16; 0; 1; 0; 0; 0; 8; 1; 1; 11; 0; 0; 1 ], 0x1c03c2fb0f9e);
    (32, 1.6, 2, [ 0; 9; 0; 3; 1; 10; 9; 1; 0; 0; 0; 1; 0; 0; 0; 0 ], 0x2a133f6deae);
    (32, 1.6, 3, [ 5; 0; 0; 5; 1; 2; 1; 4; 0; 16; 9; 3; 0; 2; 2; 0 ], 0x1cb4c322d0ed);
    (512, 1.1, 1, [ 57; 3; 5; 330; 1; 17; 6; 0; 2; 172; 10; 11; 247; 1; 0; 12 ], 0x19f8ba67dc78);
    (512, 1.1, 2, [ 1; 192; 3; 56; 11; 220; 190; 15; 1; 4; 1; 17; 0; 1; 1; 7 ], 0x12b6073584a1);
    (512, 1.1, 3, [ 97; 5; 4; 105; 20; 45; 9; 78; 1; 318; 205; 64; 4; 40; 31; 2 ], 0x31d51ccac3fd);
    (10, 1.0, 1, [ 4; 1; 1; 8; 0; 2; 1; 0; 0; 6; 2; 2; 7; 0; 0; 2 ], 0x9079f48b2a5);
    (10, 1.0, 2, [ 0; 7; 1; 4; 2; 7; 7; 2; 0; 1; 0; 2; 0; 0; 0; 1 ], 0x33fb11f2e1eb);
    (10, 1.0, 3, [ 5; 1; 1; 5; 2; 4; 1; 5; 0; 8; 7; 4; 1; 3; 3; 0 ], 0x331f5dfea1a5);
  ]

let test_zipf_reference_ranks () =
  List.iter
    (fun (n, s, seed, first, digest) ->
      let name = Printf.sprintf "n=%d s=%g seed=%d" n s seed in
      let zipf = Workload.Dist.Zipf.create ~n ~s in
      let rng = Sim.Rng.create ~seed in
      let ranks = List.init 1_000 (fun _ -> Workload.Dist.Zipf.draw zipf rng) in
      Alcotest.(check (list int))
        (name ^ ": first 16") first
        (List.filteri (fun i _ -> i < 16) ranks);
      checki (name ^ ": digest of 1000") digest
        (List.fold_left (fun h r -> ((h * 31) + r) land 0x3fff_ffff_ffff) 0 ranks))
    zipf_reference

let test_zipf_draw_allocates_nothing () =
  let zipf = Workload.Dist.Zipf.create ~n:32 ~s:1.6 in
  let rng = Sim.Rng.create ~seed:1 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Workload.Dist.Zipf.draw zipf rng))
  done;
  let words = Gc.minor_words () -. before in
  checkb (Printf.sprintf "%.0f words over 10000 draws" words) true
    (words <= 64.)

let test_zipf_create_rejects () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "n = 0" true (raises (fun () -> Workload.Dist.Zipf.create ~n:0 ~s:1.));
  checkb "s < 0" true
    (raises (fun () -> Workload.Dist.Zipf.create ~n:4 ~s:(-1.)))

(* ---------- Arrivals ---------- *)

let test_open_loop_rate () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:4 in
  let n = ref 0 in
  Workload.Arrivals.open_loop e rng ~rate_per_s:1_000_000.
    ~until:(Sim.Units.ms 100) (fun ~seq:_ -> incr n);
  Sim.Engine.run e;
  (* 1M/s for 100ms = ~100k arrivals; Poisson sd ~316. *)
  checkb "rate respected" true (!n > 98_000 && !n < 102_000)

let test_open_loop_seq_monotone () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:5 in
  let last = ref (-1) in
  Workload.Arrivals.open_loop e rng ~rate_per_s:100_000.
    ~until:(Sim.Units.ms 10) (fun ~seq ->
      checki "monotone" (!last + 1) seq;
      last := seq);
  Sim.Engine.run e

let test_step_rates () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:6 in
  let per_phase = Array.make 3 0 in
  Workload.Arrivals.step_rates e rng
    ~steps:
      [
        (Sim.Units.ms 10, 1_000_000.);
        (Sim.Units.ms 10, 0.);
        (Sim.Units.ms 10, 500_000.);
      ]
    (fun ~seq:_ ->
      let now = Sim.Engine.now e in
      let phase = now / Sim.Units.ms 10 in
      if phase < 3 then per_phase.(phase) <- per_phase.(phase) + 1);
  Sim.Engine.run e;
  checkb "phase 0 busy" true (per_phase.(0) > 8_000);
  checki "phase 1 silent" 0 per_phase.(1);
  checkb "phase 2 half rate" true
    (per_phase.(2) > 4_000 && per_phase.(2) < 6_000)

let test_closed_loop_respects_outstanding () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:7 in
  let in_flight = ref 0 and max_in_flight = ref 0 and total = ref 0 in
  Workload.Arrivals.closed_loop e rng ~clients:4
    ~think_time:(Workload.Dist.Constant 100.)
    ~send:(fun ~seq:_ ~done_ ->
      incr in_flight;
      incr total;
      if !in_flight > !max_in_flight then max_in_flight := !in_flight;
      (* Service takes 1us. *)
      ignore
        (Sim.Engine.schedule_after e ~after:(Sim.Units.us 1) (fun () ->
             decr in_flight;
             done_ ())))
    ~until:(Sim.Units.ms 1);
  Sim.Engine.run e;
  checkb "bounded by clients" true (!max_in_flight <= 4);
  checkb "made progress" true (!total > 100)

(* ---------- Rpc_mix ---------- *)

let test_small_rpc_sizes_shape () =
  let rng = Sim.Rng.create ~seed:8 in
  let sizes =
    Array.init 50_000 (fun _ ->
        Workload.Dist.sample_int Workload.Rpc_mix.small_rpc_sizes rng)
  in
  Array.sort compare sizes;
  let q p = sizes.(int_of_float (p *. 50_000.)) in
  (* Paper-cited characterization: the great majority of RPCs small. *)
  checkb "p50 small" true (q 0.5 < 500);
  checkb "p90 under 2KiB" true (q 0.9 < 2_048);
  checkb "tail exists" true (sizes.(49_999) > 4_096)

let test_sample_args_tracks_size () =
  let rng = Sim.Rng.create ~seed:9 in
  let v =
    Workload.Rpc_mix.sample_args rng ~schema:Rpc.Schema.Blob
      ~size:(Workload.Dist.Constant 512.)
  in
  let encoded = Rpc.Codec.encoded_size v in
  checkb "near 512" true (encoded >= 500 && encoded <= 530)

let test_picks () =
  let rng = Sim.Rng.create ~seed:10 in
  for _ = 1 to 1000 do
    let p = Workload.Rpc_mix.uniform_pick rng ~services:7 in
    checkb "in range" true (p >= 0 && p < 7)
  done;
  let counts = Array.make 8 0 in
  let zipf = Workload.Dist.Zipf.create ~n:8 ~s:1.2 in
  for _ = 1 to 10_000 do
    let p = Workload.Rpc_mix.zipf_pick rng zipf in
    counts.(p) <- counts.(p) + 1
  done;
  checkb "skewed" true (counts.(0) > 3 * counts.(7))

(* ---------- Trace replay ---------- *)

let test_trace_parse_and_roundtrip () =
  let csv = "# comment\n0.0, 3, 128\n\n12.5, 0, 64\n100, 1, 0\n" in
  match Workload.Trace_replay.parse csv with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok events ->
      checki "three events" 3 (List.length events);
      (match events with
      | [ a; b; c ] ->
          checki "t0" 0 a.Workload.Trace_replay.at;
          checki "svc" 3 a.Workload.Trace_replay.service_idx;
          checki "t1" 12_500 b.Workload.Trace_replay.at;
          checki "bytes" 0 c.Workload.Trace_replay.bytes
      | _ -> Alcotest.fail "events");
      (* to_csv then parse is the identity. *)
      (match
         Workload.Trace_replay.parse (Workload.Trace_replay.to_csv events)
       with
      | Ok events' -> checkb "roundtrip" true (events = events')
      | Error e -> Alcotest.failf "reparse: %s" e)

let test_trace_parse_errors () =
  let bad cases =
    List.iter
      (fun csv ->
        match Workload.Trace_replay.parse csv with
        | Ok _ -> Alcotest.failf "accepted %S" csv
        | Error _ -> ())
      cases
  in
  bad
    [ "1.0, 2\n"; "x, 1, 2\n"; "1.0, -1, 2\n"; "5.0, 1, 2\n1.0, 1, 2\n" ]

let test_trace_synthesize_and_stats () =
  let rng = Sim.Rng.create ~seed:13 in
  let events =
    Workload.Trace_replay.synthesize rng ~duration:(Sim.Units.ms 10)
      ~rate_per_s:500_000. ~services:8 ~zipf_s:1.0 ()
  in
  let n = List.length events in
  checkb "rate respected" true (n > 4_200 && n < 5_800);
  checkb "sorted" true
    (let rec ok last = function
       | [] -> true
       | e :: rest ->
           e.Workload.Trace_replay.at >= last
           && ok e.Workload.Trace_replay.at rest
     in
     ok 0 events);
  checkb "stats mentions arrivals" true
    (let s = Workload.Trace_replay.stats events in
     String.length s > 0 && String.sub s 0 4 <> "empt")

let test_trace_replay_timing () =
  let e = Sim.Engine.create () in
  let events =
    [
      { Workload.Trace_replay.at = 100; service_idx = 0; bytes = 1 };
      { Workload.Trace_replay.at = 300; service_idx = 1; bytes = 2 };
    ]
  in
  let fired = ref [] in
  Workload.Trace_replay.replay e ~offset:50 events (fun ev ->
      fired := (Sim.Engine.now e, ev.Workload.Trace_replay.service_idx)
               :: !fired);
  Sim.Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "timed" [ (150, 0); (350, 1) ] (List.rev !fired)

(* ---------- Scenario ---------- *)

let test_echo_fleet () =
  let s = Workload.Scenario.echo_fleet ~n:5 () in
  checki "five defs" 5 (List.length s.Workload.Scenario.defs);
  checki "port" 7_002 (Workload.Scenario.port_of s ~service_idx:2);
  checki "service id" 103 (Workload.Scenario.service_id_of s ~service_idx:3);
  checkb "schema" true
    (Workload.Scenario.request_schema s ~service_idx:0 ~method_id:0
    = Rpc.Schema.Blob);
  checkb "bad idx raises" true
    (try
       ignore (Workload.Scenario.port_of s ~service_idx:9);
       false
     with Invalid_argument _ -> true)

let test_mixed_fleet_heterogeneous () =
  let rng = Sim.Rng.create ~seed:11 in
  let s = Workload.Scenario.mixed_fleet ~n:100 rng in
  let times =
    List.map
      (fun d ->
        match d.Rpc.Interface.methods with
        | m :: _ -> m.Rpc.Interface.handler_time
        | [] -> 0)
      s.Workload.Scenario.defs
  in
  let short = List.filter (fun t -> t < 1_000) times in
  let long = List.filter (fun t -> t >= 10_000) times in
  checkb "has short" true (List.length short > 40);
  checkb "has long tail" true (List.length long >= 1)

let () =
  Alcotest.run "workload"
    [
      ( "dist",
        [
          Alcotest.test_case "means analytic" `Slow
            test_dist_means_match_analytic;
          Alcotest.test_case "pareto tail" `Quick test_dist_pareto_tail;
          Alcotest.test_case "validate" `Quick test_dist_validate;
          Alcotest.test_case "zipf skew" `Slow test_zipf_skew;
          Alcotest.test_case "zipf ranks match the reference" `Quick
            test_zipf_reference_ranks;
          Alcotest.test_case "zipf draws allocate nothing" `Quick
            test_zipf_draw_allocates_nothing;
          Alcotest.test_case "zipf rejects bad parameters" `Quick
            test_zipf_create_rejects;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "open loop rate" `Slow test_open_loop_rate;
          Alcotest.test_case "sequence monotone" `Quick
            test_open_loop_seq_monotone;
          Alcotest.test_case "step rates" `Quick test_step_rates;
          Alcotest.test_case "closed loop bounded" `Quick
            test_closed_loop_respects_outstanding;
        ] );
      ( "rpc_mix",
        [
          Alcotest.test_case "small sizes shape" `Slow
            test_small_rpc_sizes_shape;
          Alcotest.test_case "args track size" `Quick
            test_sample_args_tracks_size;
          Alcotest.test_case "service picks" `Quick test_picks;
        ] );
      ( "trace_replay",
        [
          Alcotest.test_case "parse and roundtrip" `Quick
            test_trace_parse_and_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "synthesize and stats" `Quick
            test_trace_synthesize_and_stats;
          Alcotest.test_case "replay timing" `Quick test_trace_replay_timing;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "echo fleet" `Quick test_echo_fleet;
          Alcotest.test_case "mixed fleet" `Quick
            test_mixed_fleet_heterogeneous;
        ] );
    ]
