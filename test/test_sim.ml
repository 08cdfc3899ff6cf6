(* Tests for the simulation core: time units, event heap, engine, RNG,
   histogram, counters, trace. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Units ---------- *)

let test_units_construction () =
  checki "us" 1_000 (Sim.Units.us 1);
  checki "ms" 1_000_000 (Sim.Units.ms 1);
  checki "s" 1_000_000_000 (Sim.Units.s 1);
  checki "round" 1_500 (Sim.Units.ns_of_float_us 1.5)

let test_units_conversion () =
  check (Alcotest.float 1e-9) "to_us" 1.5 (Sim.Units.to_float_us 1_500);
  check (Alcotest.float 1e-9) "to_ms" 2.0 (Sim.Units.to_float_ms 2_000_000);
  check (Alcotest.float 1e-9) "to_s" 0.5 (Sim.Units.to_float_s 500_000_000)

let test_units_cycles () =
  let f = { Sim.Units.ghz = 2.0 } in
  check (Alcotest.float 1e-9) "cycles" 2_000. (Sim.Units.cycles_of_ns f 1_000);
  checki "ns_of_cycles" 500 (Sim.Units.ns_of_cycles f 1_000.);
  checkb "bad freq raises" true
    (try
       ignore (Sim.Units.ns_of_cycles { Sim.Units.ghz = 0. } 1.);
       false
     with Invalid_argument _ -> true)

let test_units_pp () =
  let s d = Format.asprintf "%a" Sim.Units.pp_duration d in
  check Alcotest.string "ns" "382ns" (s 382);
  check Alcotest.string "us" "12.40us" (s 12_400);
  check Alcotest.string "ms" "3.50ms" (s 3_500_000);
  check Alcotest.string "s" "1.20s" (s 1_200_000_000)

(* ---------- Event heap ---------- *)

let drain_values h =
  let rec go acc =
    match Sim.Event_heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> go (v :: acc)
  in
  go []

let drain_times h =
  let rec go acc =
    match Sim.Event_heap.pop h with
    | None -> List.rev acc
    | Some (t, _) -> go (t :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Sim.Event_heap.create () in
  List.iter (fun t -> ignore (Sim.Event_heap.push h ~time:t t))
    [ 5; 1; 3; 2; 4 ];
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 4; 5 ]
    (drain_values h)

let test_heap_fifo_ties () =
  let h = Sim.Event_heap.create () in
  List.iter (fun v -> ignore (Sim.Event_heap.push h ~time:7 v)) [ 10; 20; 30 ];
  check (Alcotest.list Alcotest.int) "ties fifo" [ 10; 20; 30 ]
    (drain_values h)

let test_heap_cancel () =
  let h = Sim.Event_heap.create () in
  let _a = Sim.Event_heap.push h ~time:1 "a" in
  let b = Sim.Event_heap.push h ~time:2 "b" in
  let _c = Sim.Event_heap.push h ~time:3 "c" in
  Sim.Event_heap.cancel h b;
  checki "live after cancel" 2 (Sim.Event_heap.live_count h);
  Sim.Event_heap.cancel h b;
  checki "double cancel no-op" 2 (Sim.Event_heap.live_count h);
  check (Alcotest.list Alcotest.string) "b skipped" [ "a"; "c" ]
    (drain_values h)

let test_heap_peek_skips_cancelled () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.push h ~time:1 "a" in
  ignore (Sim.Event_heap.push h ~time:5 "b");
  Sim.Event_heap.cancel h a;
  check (Alcotest.option Alcotest.int) "peek" (Some 5)
    (Sim.Event_heap.peek_time h)

let test_heap_growth () =
  let h = Sim.Event_heap.create () in
  for i = 999 downto 0 do
    ignore (Sim.Event_heap.push h ~time:i i)
  done;
  checki "live" 1000 (Sim.Event_heap.live_count h);
  check (Alcotest.list Alcotest.int) "all sorted"
    (List.init 1000 (fun i -> i))
    (drain_values h)

let heap_sorts_any_input =
  QCheck.Test.make ~name:"event_heap pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Event_heap.create () in
      List.iter (fun t -> ignore (Sim.Event_heap.push h ~time:t t)) times;
      drain_times h = List.sort compare times)

let heap_cancel_removes_exactly =
  QCheck.Test.make ~name:"cancelling a subset pops the complement"
    ~count:200
    QCheck.(pair (list (int_bound 1000)) (list bool))
    (fun (times, cancels) ->
      let h = Sim.Event_heap.create () in
      let handles =
        List.map (fun t -> (t, Sim.Event_heap.push h ~time:t t)) times
      in
      let kept = ref [] in
      List.iteri
        (fun i (t, handle) ->
          let cancel =
            match List.nth_opt cancels i with Some b -> b | None -> false
          in
          if cancel then Sim.Event_heap.cancel h handle
          else kept := t :: !kept)
        handles;
      drain_times h = List.sort compare !kept)


let test_heap_cancel_after_pop () =
  let h = Sim.Event_heap.create () in
  let a = Sim.Event_heap.push h ~time:1 "a" in
  ignore (Sim.Event_heap.push h ~time:2 "b");
  (match Sim.Event_heap.pop h with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "wrong pop");
  Sim.Event_heap.cancel h a;
  checki "cancel of popped entry is a no-op" 1 (Sim.Event_heap.live_count h)

let test_heap_compaction_preserves_order () =
  (* Cancel a large majority so the >50%-dead compaction fires, then
     check the survivors still drain in order. *)
  let h = Sim.Event_heap.create () in
  let handles =
    List.init 500 (fun i -> (i, Sim.Event_heap.push h ~time:i i))
  in
  List.iter (fun (i, hd) -> if i mod 5 <> 0 then Sim.Event_heap.cancel h hd)
    handles;
  checki "live after mass cancel" 100 (Sim.Event_heap.live_count h);
  check (Alcotest.list Alcotest.int) "survivors in order"
    (List.init 100 (fun i -> i * 5))
    (drain_values h)

(* Model-based property: the heap must agree, operation by operation,
   with a sorted-association-list reference under interleaved
   push/pop/cancel — including cancels aimed at already-popped
   handles. *)
let heap_matches_reference_model =
  QCheck.Test.make ~name:"heap agrees with sorted-list model" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 400) (pair (int_bound 3) small_nat))
    (fun ops ->
      let h = Sim.Event_heap.create () in
      let model = ref [] in
      let handles = ref [||] in
      let nseq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 | 1 ->
              let time = v in
              let hd = Sim.Event_heap.push h ~time !nseq in
              handles := Array.append !handles [| (!nseq, hd) |];
              model := (time, !nseq) :: !model;
              incr nseq
          | 2 -> (
              let expected =
                match List.sort compare !model with
                | [] -> None
                | (t, s) :: _ -> Some (t, s)
              in
              match (Sim.Event_heap.pop h, expected) with
              | None, None -> ()
              | Some (t, s), Some (t', s') when t = t' && s = s' ->
                  model := List.filter (fun (_, s0) -> s0 <> s) !model
              | _ -> ok := false)
          | _ ->
              if Array.length !handles > 0 then begin
                let s, hd = !handles.(v mod Array.length !handles) in
                Sim.Event_heap.cancel h hd;
                model := List.filter (fun (_, s0) -> s0 <> s) !model
              end)
        ops;
      !ok
      && Sim.Event_heap.live_count h = List.length !model
      && drain_times h = List.sort compare (List.map fst !model))

(* ---------- Engine ---------- *)


let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.Engine.schedule_at e ~at:30 (note "c"));
  ignore (Sim.Engine.schedule_at e ~at:10 (note "a"));
  ignore (Sim.Engine.schedule_at e ~at:20 (note "b"));
  Sim.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
    (List.rev !log);
  checki "clock at last event" 30 (Sim.Engine.now e);
  checki "events processed" 3 (Sim.Engine.events_processed e)

let test_engine_relative_and_nested () =
  let e = Sim.Engine.create () in
  let fired_at = ref (-1) in
  ignore
    (Sim.Engine.schedule_after e ~after:10 (fun () ->
         ignore
           (Sim.Engine.schedule_after e ~after:5 (fun () ->
                fired_at := Sim.Engine.now e))));
  Sim.Engine.run e;
  checki "nested schedule" 15 !fired_at

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.Engine.schedule_after e ~after:10 tick)
  in
  ignore (Sim.Engine.schedule_after e ~after:10 tick);
  Sim.Engine.run e ~until:100;
  checki "ticks within horizon" 10 !count;
  checki "clock parked at horizon" 100 (Sim.Engine.now e);
  checki "pending event retained" 1 (Sim.Engine.pending e)

let test_engine_until_advances_clock_when_drained () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e ~at:5 (fun () -> ()));
  Sim.Engine.run e ~until:50;
  checki "clock" 50 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule_after e ~after:10 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  checkb "not fired" false !fired

let test_engine_past_raises () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e ~at:100 (fun () -> ()));
  Sim.Engine.run e;
  checkb "raises on past" true
    (try
       ignore (Sim.Engine.schedule_at e ~at:50 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_step () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e ~at:1 (fun () -> ()));
  checkb "first step" true (Sim.Engine.step e);
  checkb "empty step" false (Sim.Engine.step e)

(* [run ~until] boundary semantics: an event exactly at the horizon
   fires; one strictly later stays queued; and a cancelled entry
   neither fires nor counts as pending after the run drains past it. *)
let test_engine_until_boundary () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  ignore (Sim.Engine.schedule_at e ~at:100 (fun () -> fired := 100 :: !fired));
  ignore (Sim.Engine.schedule_at e ~at:101 (fun () -> fired := 101 :: !fired));
  Sim.Engine.run e ~until:100;
  check (Alcotest.list Alcotest.int) "event at horizon fires" [ 100 ]
    (List.rev !fired);
  checki "strictly-later event retained" 1 (Sim.Engine.pending e);
  checki "clock parked at horizon" 100 (Sim.Engine.now e);
  (* The retained event fires on a later run, exactly once. *)
  Sim.Engine.run e ~until:200;
  check (Alcotest.list Alcotest.int) "retained event fires later"
    [ 100; 101 ] (List.rev !fired);
  checki "queue drained" 0 (Sim.Engine.pending e)

let test_engine_until_cancel_consistent () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let h = Sim.Engine.schedule_at e ~at:50 (fun () -> incr fired) in
  ignore (Sim.Engine.schedule_at e ~at:60 (fun () -> incr fired));
  Sim.Engine.cancel e h;
  checki "pending excludes cancelled" 1 (Sim.Engine.pending e);
  Sim.Engine.run e ~until:70;
  checki "only live event fired" 1 !fired;
  checki "pending empty after run" 0 (Sim.Engine.pending e)

(* ---------- RNG ---------- *)

let test_rng_determinism () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_decorrelates () =
  let a = Sim.Rng.create ~seed:7 in
  let b = Sim.Rng.split a in
  checkb "split differs" false
    (Int64.equal (Sim.Rng.bits64 a) (Sim.Rng.bits64 b))

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  checkb "different first draw" false
    (Int64.equal (Sim.Rng.bits64 a) (Sim.Rng.bits64 b))

let test_rng_float_range () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_range () =
  let r = Sim.Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r ~bound:17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done;
  checkb "bad bound raises" true
    (try
       ignore (Sim.Rng.int r ~bound:0);
       false
     with Invalid_argument _ -> true)

let test_rng_exponential_mean () =
  let r = Sim.Rng.create ~seed:5 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:42.
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 42.) > 1. then
    Alcotest.failf "exponential mean off: %f" mean

let test_rng_gaussian_moments () =
  let r = Sim.Rng.create ~seed:6 in
  let n = 100_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Sim.Rng.gaussian r ~mu:5. ~sigma:2. in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 5.) > 0.05 then Alcotest.failf "mu off: %f" mean;
  if Float.abs (var -. 4.) > 0.2 then Alcotest.failf "sigma^2 off: %f" var

let test_rng_shuffle_permutes () =
  let r = Sim.Rng.create ~seed:8 in
  let arr = Array.init 50 (fun i -> i) in
  let orig = Array.copy arr in
  Sim.Rng.shuffle r arr;
  check
    (Alcotest.list Alcotest.int)
    "same multiset"
    (List.sort compare (Array.to_list orig))
    (List.sort compare (Array.to_list arr));
  checkb "actually moved" false (arr = orig)

(* ---------- Histogram ---------- *)

let test_histogram_basics () =
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.record h) [ 10; 20; 30; 40; 50 ];
  checki "count" 5 (Sim.Histogram.count h);
  checki "min" 10 (Sim.Histogram.min_value h);
  checki "max" 50 (Sim.Histogram.max_value h);
  check (Alcotest.float 1e-9) "mean" 30. (Sim.Histogram.mean h)

let test_histogram_record_n () =
  let h = Sim.Histogram.create () in
  Sim.Histogram.record_n h 7 ~n:100;
  checki "count" 100 (Sim.Histogram.count h);
  checki "p99" 7 (Sim.Histogram.quantile h 0.99)

let test_histogram_quantile_exact_small () =
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  checki "p50" 5 (Sim.Histogram.quantile h 0.5);
  checki "p100" 10 (Sim.Histogram.quantile h 1.0)

let test_histogram_merge_and_clear () =
  let a = Sim.Histogram.create () and b = Sim.Histogram.create () in
  Sim.Histogram.record a 100;
  Sim.Histogram.record b 200;
  Sim.Histogram.merge_into ~src:a ~dst:b;
  checki "merged count" 2 (Sim.Histogram.count b);
  checki "merged max" 200 (Sim.Histogram.max_value b);
  Sim.Histogram.clear b;
  checki "cleared" 0 (Sim.Histogram.count b)

let test_histogram_empty_raises () =
  let h = Sim.Histogram.create () in
  checkb "quantile raises" true
    (try
       ignore (Sim.Histogram.quantile h 0.5);
       false
     with Invalid_argument _ -> true);
  checkb "negative raises" true
    (try
       Sim.Histogram.record h (-1);
       false
     with Invalid_argument _ -> true)

let histogram_quantile_error_bounded =
  QCheck.Test.make
    ~name:"histogram quantile stays within bucket resolution" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 500) (int_bound 5_000_000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Sim.Histogram.create () in
      List.iter (Sim.Histogram.record h) values;
      let sorted = Array.of_list (List.sort compare values) in
      List.for_all
        (fun q ->
          let est = Sim.Histogram.quantile h q in
          let rank =
            max 0
              (min
                 (Array.length sorted - 1)
                 (int_of_float
                    (Float.round (q *. float_of_int (Array.length sorted)))
                 - 1))
          in
          let exact = sorted.(rank) in
          let tolerance = max 4 (exact / 8) in
          est >= exact - tolerance
          && est <= sorted.(Array.length sorted - 1) + tolerance)
        [ 0.5; 0.9; 0.99 ])

let histogram_mean_is_exact =
  QCheck.Test.make ~name:"histogram mean matches arithmetic mean" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 1_000_000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Sim.Histogram.create () in
      List.iter (Sim.Histogram.record h) values;
      let exact =
        float_of_int (List.fold_left ( + ) 0 values)
        /. float_of_int (List.length values)
      in
      Float.abs (Sim.Histogram.mean h -. exact) < 1e-6)

(* ---------- Counter and Trace ---------- *)

let test_counter_group () =
  let g = Sim.Counter.group "nic" in
  let a = Sim.Counter.counter g "rx" in
  let a' = Sim.Counter.counter g "rx" in
  Sim.Counter.incr a;
  Sim.Counter.add a' 4;
  checki "same counter" 5 (Sim.Counter.value a);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "to_list" [ ("rx", 5) ] (Sim.Counter.to_list g);
  Sim.Counter.reset_group g;
  checki "reset" 0 (Sim.Counter.value a)

let test_trace_ring () =
  let t = Sim.Trace.create ~capacity:3 () in
  Sim.Trace.emit t ~time:1 ~cat:"x" (fun () -> "dropped when disabled");
  checki "disabled: empty" 0 (List.length (Sim.Trace.entries t));
  Sim.Trace.enable t;
  List.iter
    (fun i -> Sim.Trace.emit t ~time:i ~cat:"c" (fun () -> string_of_int i))
    [ 1; 2; 3; 4; 5 ];
  let entries = Sim.Trace.entries t in
  checki "capacity bound" 3 (List.length entries);
  check Alcotest.string "oldest retained" "3"
    (match entries with (_, _, m) :: _ -> m | [] -> "none");
  Sim.Trace.clear t;
  checki "cleared" 0 (List.length (Sim.Trace.entries t))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sim"
    [
      ( "units",
        [
          Alcotest.test_case "construction" `Quick test_units_construction;
          Alcotest.test_case "conversion" `Quick test_units_conversion;
          Alcotest.test_case "cycles" `Quick test_units_cycles;
          Alcotest.test_case "pretty-printing" `Quick test_units_pp;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_heap_cancel;
          Alcotest.test_case "peek skips cancelled" `Quick
            test_heap_peek_skips_cancelled;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "cancel after pop" `Quick
            test_heap_cancel_after_pop;
          Alcotest.test_case "compaction preserves order" `Quick
            test_heap_compaction_preserves_order;
        ]
        @ qsuite
            [
              heap_sorts_any_input;
              heap_cancel_removes_exactly;
              heap_matches_reference_model;
            ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_relative_and_nested;
          Alcotest.test_case "until horizon" `Quick test_engine_until;
          Alcotest.test_case "until with drained queue" `Quick
            test_engine_until_advances_clock_when_drained;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "past scheduling raises" `Quick
            test_engine_past_raises;
          Alcotest.test_case "single step" `Quick test_engine_step;
          Alcotest.test_case "until boundary (heap)" `Quick
            test_engine_until_boundary;
          Alcotest.test_case "cancel-then-run pending (heap)" `Quick
            test_engine_until_cancel_consistent;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split decorrelates" `Quick
            test_rng_split_decorrelates;
          Alcotest.test_case "seed sensitivity" `Quick
            test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "exponential mean" `Slow
            test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow
            test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_permutes;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "record_n" `Quick test_histogram_record_n;
          Alcotest.test_case "exact small quantiles" `Quick
            test_histogram_quantile_exact_small;
          Alcotest.test_case "merge and clear" `Quick
            test_histogram_merge_and_clear;
          Alcotest.test_case "empty raises" `Quick test_histogram_empty_raises;
        ]
        @ qsuite [ histogram_quantile_error_bounded; histogram_mean_is_exact ]
      );
      ( "counter_trace",
        [
          Alcotest.test_case "counter group" `Quick test_counter_group;
          Alcotest.test_case "trace ring" `Quick test_trace_ring;
        ] );
    ]
