type t = {
  mutable clock : Units.time;
  queue : (unit -> unit) Event_heap.t;
  mutable fired : int;
  mutable monitor : (Units.time -> unit) option;
}

type handle = (unit -> unit) Event_heap.handle

let no_handle = Event_heap.no_handle

let create () =
  { clock = 0; queue = Event_heap.create (); fired = 0; monitor = None }

let scheduler_kind _ = Scheduler.Heap
let set_monitor t m = t.monitor <- m
let validate t = Event_heap.validate t.queue
let now t = t.clock

let[@hot_path] schedule_at t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now (%d)" at
         t.clock);
  Event_heap.push t.queue ~time:at f

let[@hot_path] schedule_after t ~after f =
  if after < 0 then invalid_arg "Engine.schedule_after: negative delay";
  Event_heap.push t.queue ~time:(t.clock + after) f

let[@hot_path] cancel t h = Event_heap.cancel t.queue h
let pending t = Event_heap.live_count t.queue

let[@hot_path] step t =
  let time = Event_heap.min_time t.queue in
  if Int.equal time Event_heap.no_time then false
  else begin
    let f = Event_heap.take t.queue in
    (match t.monitor with None -> () | Some m -> m time);
    t.clock <- time;
    t.fired <- t.fired + 1;
    f ();
    true
  end

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some limit ->
      let due () =
        let next = Event_heap.min_time t.queue in
        (not (Int.equal next Event_heap.no_time)) && next <= limit
      in
      while due () && step t do () done;
      (* Advance the clock to the horizon so that rate computations
         over [0, until] are well defined even if the queue drained
         early. *)
      if t.clock < limit then t.clock <- limit)

let events_processed t = t.fired
