(* Conservative PDES over an array of per-shard engines, stepped in one
   domain.

   The model: each shard (a rack host, or the rack's switch) owns a
   private {!Engine} and shares no mutable simulation state with any
   other shard. The only inter-shard channel is {!post}, which carries
   a closure across the wire with a delivery time at least the
   [src]→[dst] wire latency past the sender's clock — the classic
   conservative-PDES contract. The window width [lookahead] is the
   smallest such latency.

   Execution proceeds in windows:

   {v
     a  = min over shards of next pending event time
     window = [a, a + lookahead - 1]          (inclusive)
     every shard runs its own events inside the window, in shard order
     deliver posted messages; repeat
   v}

   Safety: any message posted during a window has delivery time
   [>= sender clock + lookahead > a + lookahead - 1], i.e. strictly
   beyond the window — so no shard can receive, during a window, a
   message that should have preempted an event it already ran. This is
   why windows need no rollback. It also guarantees progress: each
   window advances the global clock floor by at least one lookahead.

   Determinism: within a shard, events run on that shard's engine in
   (time, seq) order. Cross-shard messages are collected per source
   and delivered between windows in [(delivery time, source shard,
   posting order)] order, by [Engine.schedule_at] in merged order, so
   destination tie-break seqs are a pure function of the simulation. *)

type outbox_item = {
  at : Units.time;
  src : int;
  dst : int;
  fn : unit -> unit;
}

type t = {
  engines : Engine.t array;
  latency : Units.duration array array;  (* per-pair wire latencies *)
  lookahead : Units.duration;  (* window width: the matrix minimum *)
  (* per-source outboxes, reverse posting order; drained by [merge]
     between windows *)
  outbox : outbox_item list array;
  mutable windows : int;
  mutable merged : int;
  (* wire-fault seam; [None] (the default) costs one load-and-branch
     per post *)
  mutable wire_fault : (src:int -> dst:int -> at:Units.time -> bool) option;
}

(* Per-pair lookahead: the window width is the matrix minimum — the
   rack's shortest link bounds how far any shard may safely run ahead —
   while each post is validated against its own pair's latency, so a
   model bug on a long link is caught even when it clears the global
   minimum. *)
let create ~latency engines =
  let n = Array.length engines in
  if n = 0 then invalid_arg "Shard_engine.create: no shards";
  if not (Int.equal (Array.length latency) n) then
    invalid_arg "Shard_engine.create: latency matrix is not NxN";
  let min_latency = ref max_int in
  Array.iteri
    (fun s row ->
      if not (Int.equal (Array.length row) n) then
        invalid_arg "Shard_engine.create: latency matrix is not NxN";
      Array.iteri
        (fun d l ->
          if l <= 0 then
            invalid_arg
              (Printf.sprintf
                 "Shard_engine.create: latency.(%d).(%d) = %d must be positive"
                 s d l);
          if l < !min_latency then min_latency := l)
        row)
    latency;
  {
    engines;
    latency;
    lookahead = !min_latency;
    outbox = Array.make n [];
    windows = 0;
    merged = 0;
    wire_fault = None;
  }

let set_wire_fault t f = t.wire_fault <- f
let lookahead t = t.lookahead
let windows_run t = t.windows
let messages_merged t = t.merged

(* Post a closure from shard [src] to run on shard [dst] at absolute
   time [at], and answer whether the wire accepted it. The conservative
   contract demands [at] be at least one lookahead past the source's
   clock; violating it would let a window deliver into its own past, so
   it is rejected loudly. Must be called from [src]'s own events (or
   before [run]). *)
let post t ~src ~dst ~at fn =
  let n = Array.length t.engines in
  if src < 0 || src >= n then invalid_arg "Shard_engine.post: bad src";
  if dst < 0 || dst >= n then invalid_arg "Shard_engine.post: bad dst";
  let pair_lookahead = t.latency.(src).(dst) in
  let horizon = Engine.now t.engines.(src) + pair_lookahead in
  if at < horizon then
    invalid_arg
      (Printf.sprintf
         "Shard_engine.post: delivery %d violates lookahead (src %d now %d + \
          lookahead %d = %d)"
         at src
         (Engine.now t.engines.(src))
         pair_lookahead horizon);
  (* The wire-fault seam: a cut wire swallows the message *after* the
     lookahead contract is enforced, so chaos runs still catch model
     bugs. The hook observes (and may count) the drop; dropping here —
     before the outbox — keeps faulted posts out of the merge order. *)
  let dropped =
    match t.wire_fault with None -> false | Some f -> f ~src ~dst ~at
  in
  if not dropped then t.outbox.(src) <- { at; src; dst; fn } :: t.outbox.(src);
  not dropped

(* Deliver every outboxed message, in an order that is a pure function
   of the simulation state: sort by (delivery time, source shard),
   stable over each source's posting order. *)
let merge t =
  let items = ref [] in
  for s = Array.length t.outbox - 1 downto 0 do
    (* rev_append un-reverses the outbox; prepending source [s] ahead
       of the already-gathered [s+1..] keeps sources ascending *)
    items := List.rev_append t.outbox.(s) !items;
    t.outbox.(s) <- []
  done;
  match !items with
  | [] -> ()
  | items ->
      let arr = Array.of_list items in
      let cmp a b =
        let c = Int.compare a.at b.at in
        if c <> 0 then c else Int.compare a.src b.src
      in
      (* stable: equal (at, src) keeps posting order *)
      Array.stable_sort cmp arr;
      Array.iter
        (fun it ->
          t.merged <- t.merged + 1;
          ignore (Engine.schedule_at t.engines.(it.dst) ~at:it.at it.fn))
        arr

(* Earliest pending event across all shards (delivered messages only),
   or [Event_heap.no_time] when every queue is drained. Allocates
   nothing. *)
let next_event_time t =
  let best = ref Event_heap.no_time in
  for i = 0 to Array.length t.engines - 1 do
    let tm = Engine.next_event_time t.engines.(i) in
    if (not (Int.equal tm Event_heap.no_time))
       && (Int.equal !best Event_heap.no_time || tm < !best)
    then best := tm
  done;
  !best

(* Run every shard, in ascending shard order, up to [limit]. *)
let run_window t limit =
  for i = 0 to Array.length t.engines - 1 do
    Engine.run t.engines.(i) ~until:limit
  done

(* Deliver messages and return the next window's (inclusive) end. When
   nothing is left before the horizon, the window fills every clock to
   [until], exactly like a plain [Engine.run]. *)
let plan_window t ~until =
  merge t;
  t.windows <- t.windows + 1;
  let a = next_event_time t in
  if (not (Int.equal a Event_heap.no_time)) && a <= until then
    (* cap at the horizon: the run must not execute past [until] *)
    min (a + t.lookahead - 1) until
  else until

(* Events scheduled beyond the horizon stay queued — exactly as a plain
   [Engine.run ~until] leaves them — so completion only demands that
   every clock reached [until] and nothing at or before it remains, in
   a queue or in flight. *)
let complete t ~until =
  let clocks_done = ref true and outboxes_empty = ref true in
  for i = 0 to Array.length t.engines - 1 do
    if Engine.now t.engines.(i) < until then clocks_done := false;
    match t.outbox.(i) with [] -> () | _ :: _ -> outboxes_empty := false
  done;
  let a = next_event_time t in
  !clocks_done && !outboxes_empty
  && (Int.equal a Event_heap.no_time || a > until)

let run t ~until =
  let continue = ref true in
  while !continue do
    run_window t (plan_window t ~until);
    if complete t ~until then continue := false
  done
