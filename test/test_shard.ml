(* Tests for the sharded conservative-PDES engine: windowing
   semantics, the lookahead contract, and the delivery contract — every
   cross-shard post lands on its destination at exactly its time. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let la = Sim.Units.us 2 (* lookahead used throughout *)

(* One shard engine over [engines] whose every wire is [la] long. *)
let uniform engines =
  let n = Array.length engines in
  Sim.Shard_engine.create ~latency:(Array.make_matrix n n la) engines

(* Per-shard logs, appended by that shard's own events. *)
type logs = (int * string) list array (* (time, tag) newest-first *)

let note (logs : logs) engines s tag () =
  logs.(s) <- (Sim.Engine.now engines.(s), tag) :: logs.(s)

let test_pingpong () =
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let logs = Array.make 2 [] in
  let t = uniform engines in
  (* shard 0 fires locally at 1000, posts a reply request to shard 1;
     shard 1 receives it and posts back; three hops in total *)
  let rec hop s at hops () =
    note logs engines s (Printf.sprintf "hop%d" hops) ();
    if hops < 3 then
      Sim.Shard_engine.post t ~src:s ~dst:(1 - s) ~at:(at + la)
        (hop (1 - s) (at + la) (hops + 1))
  in
  ignore (Sim.Engine.schedule_at engines.(0) ~at:1000 (hop 0 1000 0));
  Sim.Shard_engine.run t ~until:(Sim.Units.ms 1);
  checki "shard0 events" 2 (List.length logs.(0));
  checki "shard1 events" 2 (List.length logs.(1));
  checki "hop1 on shard1 at +la" (1000 + la) (fst (List.nth (List.rev logs.(1)) 0));
  checki "clock0 at horizon" (Sim.Units.ms 1) (Sim.Engine.now engines.(0));
  checki "clock1 at horizon" (Sim.Units.ms 1) (Sim.Engine.now engines.(1));
  checkb "messages merged" true (Sim.Shard_engine.messages_merged t >= 3)

let test_lookahead_violation_raises () =
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let t = uniform engines in
  checkb "post under lookahead rejected" true
    (try
       Sim.Shard_engine.post t ~src:0 ~dst:1 ~at:(la - 1) (fun () -> ());
       false
     with Invalid_argument _ -> true);
  checkb "post at exactly lookahead ok" true
    (try
       Sim.Shard_engine.post t ~src:0 ~dst:1 ~at:la (fun () -> ());
       true
     with Invalid_argument _ -> false)

let test_clock_fill_and_reuse () =
  let engines = Array.init 3 (fun _ -> Sim.Engine.create ()) in
  let t = uniform engines in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule_at engines.(1) ~at:500 (fun () -> incr fired));
  Sim.Shard_engine.run t ~until:10_000;
  Array.iter (fun e -> checki "clock at first horizon" 10_000 (Sim.Engine.now e)) engines;
  (* a second run continues from the current state *)
  ignore (Sim.Engine.schedule_at engines.(2) ~at:15_000 (fun () -> incr fired));
  Sim.Shard_engine.run t ~until:20_000;
  Array.iter (fun e -> checki "clock at second horizon" 20_000 (Sim.Engine.now e)) engines;
  checki "both events fired" 2 !fired

(* Regression: a run must terminate (and fill clocks) even when events
   remain queued beyond the horizon — the common case for every
   experiment that leaves retry timers armed past its measurement
   window. *)
let test_pending_beyond_horizon () =
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let t = uniform engines in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule_at engines.(0) ~at:100 (fun () -> incr fired));
  ignore (Sim.Engine.schedule_at engines.(0) ~at:99_999 (fun () -> incr fired));
  ignore (Sim.Engine.schedule_at engines.(1) ~at:88_888 (fun () -> incr fired));
  Sim.Shard_engine.run t ~until:10_000;
  checki "only the in-horizon event fired" 1 !fired;
  checki "late events stay queued" 1 (Sim.Engine.pending engines.(0));
  checki "clock0 at horizon" 10_000 (Sim.Engine.now engines.(0));
  (* and a later run picks the stragglers up *)
  Sim.Shard_engine.run t ~until:100_000;
  checki "stragglers fired" 3 !fired

(* ---------- per-pair lookahead matrices ---------- *)

let test_matrix_lookahead () =
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let latency =
    [|
      [| Sim.Units.us 2; Sim.Units.us 10 |];
      [| Sim.Units.us 2; Sim.Units.us 2 |];
    |]
  in
  let t = Sim.Shard_engine.create ~latency engines in
  checki "window width is the matrix minimum" (Sim.Units.us 2)
    (Sim.Shard_engine.lookahead t);
  (* the regression that motivates per-pair validation: a post that
     clears the global minimum but arrives sooner than its own link
     allows must be rejected — under a uniform-min check it would
     silently model a faster wire than the topology has *)
  checkb "under-latency post on the long link rejected" true
    (try
       Sim.Shard_engine.post t ~src:0 ~dst:1 ~at:(Sim.Units.us 2)
         (fun () -> ());
       false
     with Invalid_argument _ -> true);
  checkb "same delivery time fine on the short link" true
    (try
       Sim.Shard_engine.post t ~src:1 ~dst:0 ~at:(Sim.Units.us 2)
         (fun () -> ());
       true
     with Invalid_argument _ -> false);
  checkb "post at exactly the pair latency ok" true
    (try
       Sim.Shard_engine.post t ~src:0 ~dst:1 ~at:(Sim.Units.us 10)
         (fun () -> ());
       true
     with Invalid_argument _ -> false)

let test_matrix_shape_raises () =
  let engines = Array.init 2 (fun _ -> Sim.Engine.create ()) in
  let raises latency =
    try
      ignore (Sim.Shard_engine.create ~latency engines);
      false
    with Invalid_argument _ -> true
  in
  checkb "non-square matrix rejected" true (raises [| [| la; la |] |]);
  checkb "short row rejected" true (raises [| [| la |]; [| la; la |] |]);
  checkb "non-positive latency rejected" true
    (raises [| [| la; 0 |]; [| la; la |] |])

(* ---------- the delivery contract ---------- *)

(* A static per-shard plan, generated up front. Each op schedules an event at [at] on [shard] that either logs,
   arms a timer, cancels a previously armed timer, or posts a logging
   closure to another shard one lookahead (plus [delta]) ahead. *)
type op = {
  shard : int;
  at : int;
  kind : int; (* 0 = plain, 1 = arm, 2 = cancel, 3 = post *)
  arg : int; (* timer id | timer id | dst shard *)
  delta : int;
}

let run_plan ?latency ~shards (plan : op list) : (int * string) list array =
  let engines = Array.init shards (fun _ -> Sim.Engine.create ()) in
  let logs = Array.make shards [] in
  let t =
    match latency with
    | None -> uniform engines
    | Some m -> Sim.Shard_engine.create ~latency:m engines
  in
  (* per-shard timer tables *)
  let timers = Array.init shards (fun _ -> Hashtbl.create 16) in
  List.iteri
    (fun i op ->
      let s = op.shard in
      ignore
        (Sim.Engine.schedule_at engines.(s) ~at:op.at (fun () ->
             match op.kind with
             | 0 -> note logs engines s (Printf.sprintf "plain%d" i) ()
             | 1 ->
                 let h =
                   Sim.Engine.schedule_after engines.(s)
                     ~after:(100 + op.delta)
                     (note logs engines s (Printf.sprintf "timer%d" op.arg))
                 in
                 Hashtbl.replace timers.(s) op.arg h
             | 2 -> (
                 note logs engines s (Printf.sprintf "cancel%d" op.arg) ();
                 match Hashtbl.find_opt timers.(s) op.arg with
                 | Some h -> Sim.Engine.cancel engines.(s) h
                 | None -> ())
             | _ ->
                 let dst = op.arg mod shards in
                 let wire =
                   match latency with None -> la | Some m -> m.(s).(dst)
                 in
                 let at = Sim.Engine.now engines.(s) + wire + op.delta in
                 Sim.Shard_engine.post t ~src:s ~dst ~at
                   (note logs engines dst (Printf.sprintf "msg%d" i)))))
    plan;
  Sim.Shard_engine.run t ~until:(Sim.Units.ms 2);
  Array.map List.rev logs

let op_gen shards =
  QCheck.Gen.(
    map
      (fun (shard, at, kind, arg, delta) -> { shard; at; kind; arg; delta })
      (tup5 (int_bound (shards - 1))
         (map (fun x -> 10 + x) (int_bound 50_000))
         (int_bound 3) (int_bound 7) (int_bound 300)))

let pp_plan plan =
  String.concat " "
    (List.map
       (fun o ->
         Printf.sprintf "(s%d@%d k%d a%d d%d)" o.shard o.at o.kind o.arg
           o.delta)
       plan)

let pp_logs logs =
  String.concat ";"
    (Array.to_list
       (Array.mapi
          (fun s l ->
            Printf.sprintf "%d:[%s]" s
              (String.concat ","
                 (List.map (fun (t, tag) -> Printf.sprintf "%d@%s" t tag) l)))
          logs))

let arb_plan shards =
  QCheck.make ~print:pp_plan
    QCheck.Gen.(list_size (int_range 1 60) (op_gen shards))

(* A random asymmetric latency matrix (every entry at least [la]) and a
   plan: posts pay each pair's own wire latency and the window is the
   matrix minimum. *)
let arb_matrix_plan shards =
  QCheck.make
    ~print:(fun (m, plan) ->
      Printf.sprintf "latency=%s %s"
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun row ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_int row)))
                 m)))
        (pp_plan plan))
    QCheck.Gen.(
      pair
        (array_size (return shards)
           (array_size (return shards)
              (map (fun x -> la + x) (int_bound (3 * la)))))
        (list_size (int_range 1 40) (op_gen shards)))

let rec non_decreasing = function
  | (a, _) :: ((b, _) :: _ as rest) -> a <= b && non_decreasing rest
  | [ _ ] | [] -> true

(* Every posted [msg<i>] is logged exactly once, on its destination
   shard, at exactly its delivery time (the poster's clock plus the
   pair's wire plus [delta]); and each shard's log is non-decreasing
   in time. *)
let on_contract ?latency ~shards plan logs =
  let wire s d = match latency with None -> la | Some m -> m.(s).(d) in
  let expected =
    List.concat
      (List.mapi
         (fun i op ->
           if op.kind = 3 then
             let dst = op.arg mod shards in
             [ (dst, op.at + wire op.shard dst + op.delta,
                Printf.sprintf "msg%d" i) ]
           else [])
         plan)
  in
  let delivered =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun s l ->
              List.filter_map
                (fun (t, tag) ->
                  if String.starts_with ~prefix:"msg" tag then Some (s, t, tag)
                  else None)
                l)
            logs))
  in
  List.sort compare delivered = List.sort compare expected
  && Array.for_all non_decreasing logs

(* Two runs of the same plan log the same timeline, and that timeline
   honours the delivery contract. *)
let deterministic_on_contract ?latency ~shards plan =
  let logs = run_plan ?latency ~shards plan in
  String.equal (pp_logs logs) (pp_logs (run_plan ?latency ~shards plan))
  && on_contract ?latency ~shards plan logs

let qcheck_determinism =
  QCheck.Test.make ~count:60
    ~name:"sharded runs are identical for every repeat and land posts on time"
    (arb_plan 4)
    (fun plan -> deterministic_on_contract ~shards:4 plan)

let qcheck_matrix_determinism =
  QCheck.Test.make ~count:30
    ~name:"matrix-lookahead runs are identical for every repeat and land posts on time"
    (arb_matrix_plan 4)
    (fun (latency, plan) -> deterministic_on_contract ~latency ~shards:4 plan)

let qsuite name t = (name, [ QCheck_alcotest.to_alcotest t ])

let () =
  Alcotest.run "shard_engine"
    [
      ( "windows",
        [
          Alcotest.test_case "cross-shard ping-pong" `Quick test_pingpong;
          Alcotest.test_case "lookahead contract" `Quick
            test_lookahead_violation_raises;
          Alcotest.test_case "clock fill + reuse" `Quick
            test_clock_fill_and_reuse;
          Alcotest.test_case "pending beyond horizon" `Quick
            test_pending_beyond_horizon;
          Alcotest.test_case "matrix lookahead contract" `Quick
            test_matrix_lookahead;
          Alcotest.test_case "matrix shape validation" `Quick
            test_matrix_shape_raises;
        ] );
      qsuite "determinism" qcheck_determinism;
      qsuite "matrix determinism" qcheck_matrix_determinism;
    ]
