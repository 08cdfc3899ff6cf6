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

let test_heap_min_time_and_take () =
  let h = Sim.Event_heap.create () in
  checki "empty heap answers no_time" Sim.Event_heap.no_time
    (Sim.Event_heap.min_time h);
  checkb "take on empty raises" true
    (try ignore (Sim.Event_heap.take h); false
     with Invalid_argument _ -> true);
  checkb "push refuses no_time" true
    (try ignore (Sim.Event_heap.push h ~time:Sim.Event_heap.no_time "x"); false
     with Invalid_argument _ -> true);
  let a = Sim.Event_heap.push h ~time:0 "a" in
  ignore (Sim.Event_heap.push h ~time:max_int "b");
  checki "time 0 is a real time" 0 (Sim.Event_heap.min_time h);
  Sim.Event_heap.cancel h a;
  checki "cancelled root dropped" max_int (Sim.Event_heap.min_time h);
  check Alcotest.string "take" "b" (Sim.Event_heap.take h);
  checki "drained" Sim.Event_heap.no_time (Sim.Event_heap.min_time h);
  checki "no live entry" 0 (Sim.Event_heap.live_count h)

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

let test_heap_mass_cancel_preserves_order () =
  (* Cancel a large majority, each removed at once from the middle of
     the heap, then check the survivors still drain in order. *)
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

(* Random interleavings of push, cancel, take and min_time against a
   reference list sorted on (time, seq), with [validate] after every
   operation. Cancels pick from every handle ever issued, so most aim
   at entries already taken or cancelled — often after their slot was
   reused by a later push — and must be no-ops. *)
type heap_op = Push of int | Cancel of int | Take | Min_time

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun t -> Push t) (int_bound 50));
        (3, map (fun i -> Cancel i) nat);
        (3, return Take);
        (1, return Min_time);
      ])

let pp_heap_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Take -> "take"
  | Min_time -> "min_time"

let heap_ops_match_sorted_reference =
  QCheck.Test.make ~name:"heap ops match a (time, seq)-sorted reference"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 300) heap_op_gen))
    (fun ops ->
      let h = Sim.Event_heap.create () in
      (* reference: pending (time, seq) pairs, kept sorted *)
      let pending = ref [] in
      let handles = ref [||] in
      let next_seq = ref 0 in
      let cmp (t, s) (t', s') =
        match Int.compare t t' with 0 -> Int.compare s s' | c -> c
      in
      let step op =
        (match op with
        | Push time ->
            let seq = !next_seq in
            incr next_seq;
            let hd = Sim.Event_heap.push h ~time seq in
            handles := Array.append !handles [| (seq, hd) |];
            pending := List.sort cmp ((time, seq) :: !pending)
        | Cancel i ->
            if Array.length !handles > 0 then begin
              let seq, hd = !handles.(i mod Array.length !handles) in
              Sim.Event_heap.cancel h hd;
              pending := List.filter (fun (_, s) -> s <> seq) !pending
            end
        | Take -> (
            match !pending with
            | [] ->
                if
                  not
                    (try ignore (Sim.Event_heap.take h); false
                     with Invalid_argument _ -> true)
                then QCheck.Test.fail_report "take on an empty heap"
            | (_, seq) :: rest ->
                let got = Sim.Event_heap.take h in
                if got <> seq then
                  QCheck.Test.fail_reportf "took seq %d, expected %d" got seq;
                pending := rest)
        | Min_time ->
            let expected =
              match !pending with
              | [] -> Sim.Event_heap.no_time
              | (t, _) :: _ -> t
            in
            if Sim.Event_heap.min_time h <> expected then
              QCheck.Test.fail_report "min_time disagrees");
        (match Sim.Event_heap.validate h with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "after %s: %s" (pp_heap_op op) e);
        if Sim.Event_heap.live_count h <> List.length !pending then
          QCheck.Test.fail_report "live_count disagrees"
      in
      List.iter step ops;
      true)

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

(* The engine's per-event path allocates nothing. Once the heap's
   arrays have grown, a scheduled no-op event costs 0 words to push
   (its handle is an int) and 0 words when [step] or [run] fires it.
   [Gc.minor] flushes before each reading, as in test_net's budget. *)
let noop () = ()

let minor_words_during f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor ();
  Gc.minor_words () -. before

let test_engine_step_allocates_nothing () =
  let e = Sim.Engine.create () in
  let n = 10_000 in
  let schedule () =
    for i = 1 to n do
      ignore (Sim.Engine.schedule_after e ~after:(i mod 97) noop)
    done
  in
  (* Warm-up: grow the heap arrays to their final capacity. *)
  schedule ();
  Sim.Engine.run e;
  let push_words = minor_words_during schedule in
  let step_words =
    minor_words_during (fun () -> while Sim.Engine.step e do () done)
  in
  checki "all fired" (2 * n) (Sim.Engine.events_processed e);
  (* The measurement itself may box a float or two; 64 words over
     10k events rounds to 0 words per event. *)
  checkb
    (Printf.sprintf "push: %.0f words over %d events" push_words n)
    true (push_words <= 64.);
  checkb
    (Printf.sprintf "step: %.0f words over %d events" step_words n)
    true (step_words <= 64.);
  (* Cancelling removes an entry without allocating, and [run ~until]
     over the survivors allocates nothing either. *)
  let handles =
    Array.init n (fun i ->
        Sim.Engine.schedule_after e ~after:(1 + (i mod 97)) noop)
  in
  let cancel_words =
    minor_words_during (fun () ->
        Array.iteri
          (fun i h -> if i mod 3 = 0 then Sim.Engine.cancel e h)
          handles)
  in
  checkb
    (Printf.sprintf "cancel: %.0f words over %d cancels" cancel_words
       ((n + 2) / 3))
    true (cancel_words <= 64.);
  let until = Sim.Engine.now e + 50 in
  let run_words = minor_words_during (fun () -> Sim.Engine.run e ~until) in
  checkb
    (Printf.sprintf "run ~until: %.0f words over %d events" run_words n)
    true (run_words <= 64.);
  checki "clock at horizon" until (Sim.Engine.now e)

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

(* The first 8 outputs of fixed seeds and of a split child, captured
   before the state was unboxed: the streams every seeded run draws
   from must not move. *)
let pinned_streams =
  [
    ( "seed 0",
      (fun () -> Sim.Rng.create ~seed:0),
      [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
        0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
        0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
    ( "seed 1",
      (fun () -> Sim.Rng.create ~seed:1),
      [ 0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
        0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL; 0x98843F48A94B7866L;
        0x74AD4C24D41A25F8L; 0x2F9A1F13648EAB6EL ] );
    ( "seed 0x5eed",
      (fun () -> Sim.Rng.create ~seed:0x5eed),
      [ 0x2B2D01EBED8DCAB4L; 0xDBFF40F40DB76A7BL; 0xDB50A1A7BE10249EL;
        0x84029A5C351A99D9L; 0x295D88DF0A6FA395L; 0x27E172AC4CD60950L;
        0xE2AF269A811DF45AL; 0xF6A032AE9EB02125L ] );
    ( "split child of seed 1",
      (fun () -> Sim.Rng.split (Sim.Rng.create ~seed:1)),
      [ 0x55C55969ED403149L; 0xFB85AF9C9A7E41F1L; 0x56DB6C9436996A50L;
        0x78C9556278914D82L; 0x1369FD87FDB9D8FBL; 0x9F24E7B0CAA5E727L;
        0xCD7A1C84D4A6130FL; 0x05EB7E636E2D94A1L ] );
    ( "seed 1 after a split",
      (fun () ->
        let r = Sim.Rng.create ~seed:1 in
        ignore (Sim.Rng.split r);
        r),
      [ 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L; 0xF440FE3B62C79D2CL;
        0x33BA2F29E7C168BBL; 0x98843F48A94B7866L; 0x74AD4C24D41A25F8L;
        0x2F9A1F13648EAB6EL; 0x509A840D44BEEDBDL ] );
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun (name, make, expected) ->
      let r = make () in
      let got = List.map (fun _ -> Sim.Rng.bits64 r) expected in
      check (Alcotest.list Alcotest.int64) name expected got)
    pinned_streams

let rng_float_is_bits53 =
  QCheck.Test.make ~name:"float r = float_of_int (bits53 r) *. 0x1p-53"
    ~count:200
    QCheck.(pair int (int_bound 64))
    (fun (seed, skip) ->
      let a = Sim.Rng.create ~seed and b = Sim.Rng.create ~seed in
      for _ = 1 to skip do
        ignore (Sim.Rng.bits64 a);
        ignore (Sim.Rng.bits64 b)
      done;
      List.for_all
        (fun _ ->
          Float.equal (Sim.Rng.float a)
            (float_of_int (Sim.Rng.bits53 b) *. 0x1p-53))
        (List.init 16 Fun.id))

(* A draw that returns an [int] or a [bool] allocates nothing: the
   state is unboxed. Each reading is taken against the same loop with
   no draw in it, so what the measurement boxes itself cancels. *)
let test_rng_draws_allocate_nothing () =
  let n = 10_240 in
  let r = Sim.Rng.create ~seed:9 in
  let interarrival = Workload.Dist.Exponential 5_000. in
  let words_of draw =
    minor_words_during (fun () ->
        for _ = 1 to n do
          draw ()
        done)
  in
  let base = words_of ignore in
  List.iter
    (fun (name, draw) ->
      let words = words_of draw -. base in
      checkb
        (Printf.sprintf "%s: %.0f words over %d draws" name words n)
        true
        (Float.equal words 0.))
    [
      ( "Rng.int",
        fun () -> ignore (Sys.opaque_identity (Sim.Rng.int r ~bound:7)) );
      ("Rng.bool", fun () -> ignore (Sys.opaque_identity (Sim.Rng.bool r)));
      ("Rng.bits53", fun () -> ignore (Sys.opaque_identity (Sim.Rng.bits53 r)));
      ( "Dist.sample_int (Exponential _)",
        fun () ->
          ignore
            (Sys.opaque_identity (Workload.Dist.sample_int interarrival r)) );
    ]

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

(* ---------- Int_table ---------- *)

(* Interleaved replace, find, remove and length against [Hashtbl], from
   a table of 8 slots that grows as it fills. The keys come from a
   small set (with negatives and the extremes beside [min_int]), so
   probe runs are long and most removals land inside one. *)
let int_table_matches_hashtbl =
  let key_of i =
    match i mod 8 with
    | 0 -> max_int - (i / 8)
    | 1 -> -1 - (i / 8)
    | _ -> i
  in
  QCheck.Test.make ~name:"Int_table = Hashtbl on replace/find/remove"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) (pair (int_bound 3) (int_bound 47)))
    (fun ops ->
      let t = Sim.Int_table.create ~dummy:(-1) 8 in
      let h = Hashtbl.create 8 in
      List.for_all
        (fun (op, i) ->
          let k = key_of i in
          (match op with
          | 0 ->
              Sim.Int_table.replace t k i;
              Hashtbl.replace h k i
          | 1 | 2 ->
              Sim.Int_table.remove t k;
              Hashtbl.remove h k
          | _ -> ());
          Sim.Int_table.length t = Hashtbl.length h
          && Bool.equal (Sim.Int_table.mem t k) (Hashtbl.mem h k)
          && (match (Sim.Int_table.find t k, Hashtbl.find_opt h k) with
             | v, Some v' -> v = v'
             | _, None -> false
             | exception Not_found -> not (Hashtbl.mem h k))
          && List.sort compare
               (Sim.Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
             = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))
        ops)

let test_int_table_edges () =
  let t = Sim.Int_table.create ~dummy:"" 0 in
  checkb "min_int is no key" true
    (match Sim.Int_table.replace t min_int "x" with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "min_int is never found" false (Sim.Int_table.mem t min_int);
  Sim.Int_table.replace t max_int "max";
  Sim.Int_table.replace t (-1) "neg";
  Sim.Int_table.replace t 0 "zero";
  Sim.Int_table.replace t 0 "zero'";
  checki "three keys" 3 (Sim.Int_table.length t);
  check Alcotest.string "replaced" "zero'" (Sim.Int_table.find t 0);
  Sim.Int_table.remove t 42;
  checki "removing an absent key" 3 (Sim.Int_table.length t);
  checkb "find of an absent key" true
    (match Sim.Int_table.find t 42 with
    | _ -> false
    | exception Not_found -> true)

(* Once grown, the table allocates nothing: 10,240 rounds of replace,
   find, mem, remove and length over up to 512 live keys, against the
   same loop without the table. *)
let test_int_table_allocates_nothing () =
  let n = 10_240 in
  let t = Sim.Int_table.create ~dummy:0 16 in
  for k = 0 to 1023 do
    Sim.Int_table.replace t k k
  done;
  for k = 0 to 1023 do
    Sim.Int_table.remove t k
  done;
  let round i =
    let k = (i * 7919) land 511 in
    Sim.Int_table.replace t k i;
    ignore (Sys.opaque_identity (Sim.Int_table.find t k));
    ignore (Sys.opaque_identity (Sim.Int_table.mem t (k + 1)));
    if i land 1 = 0 then Sim.Int_table.remove t k;
    ignore (Sys.opaque_identity (Sim.Int_table.length t))
  in
  let loop f () =
    for i = 1 to n do
      f i
    done
  in
  let base = minor_words_during (loop (fun i -> ignore (Sys.opaque_identity i))) in
  let words = minor_words_during (loop round) -. base in
  checkb
    (Printf.sprintf "%.0f words over %d rounds" words n)
    true (Float.equal words 0.)

(* ---------- Counter ---------- *)

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
          Alcotest.test_case "mass cancel preserves order" `Quick
            test_heap_mass_cancel_preserves_order;
          Alcotest.test_case "min_time and take" `Quick
            test_heap_min_time_and_take;
        ]
        @ qsuite
            [
              heap_sorts_any_input;
              heap_cancel_removes_exactly;
              heap_matches_reference_model;
              heap_ops_match_sorted_reference;
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
          Alcotest.test_case "step allocates nothing" `Quick
            test_engine_step_allocates_nothing;
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
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ]
        @ qsuite [ rng_float_is_bits53 ] );
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
      ( "int_table",
        [
          Alcotest.test_case "edges" `Quick test_int_table_edges;
          Alcotest.test_case "allocates nothing once grown" `Quick
            test_int_table_allocates_nothing;
        ]
        @ qsuite [ int_table_matches_hashtbl ] );
      ( "counter_trace",
        [ Alcotest.test_case "counter group" `Quick test_counter_group ] );
    ]
