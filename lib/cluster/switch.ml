(* Top-of-rack switch: finite per-port ingress/egress FIFOs around a
   deterministic crossbar.

   The tie-break discipline is the whole point. Frames arriving at the
   same simulated instant are not served in event-schedule order —
   that order depends on who scheduled what when — but collected into
   a per-instant batch and admitted in ascending ingress-port order.
   The batch trick: the first arrival of an instant schedules a sweep
   event at the same timestamp; every event already queued for that
   instant was scheduled earlier (lower sequence number), so the sweep
   runs after all of them and sees the complete batch. (An ingress
   scheduled *at* the instant, after the sweep has run, simply opens a
   second batch — still deterministic, just a later admission round.)

   Downstream of admission everything is FIFO, so the (arrival-time,
   port) order is preserved: each ingress queue serves heads in order,
   one per [fwd_delay]; same-instant crossbar completions reach the
   egress queues in admission order; each egress transmitter
   serializes one frame per [tx] and fires [deliver] at transmit
   complete. Every loss path is counted, never silent. *)

type port_conf = {
  latency : Sim.Units.duration;
  tx : Sim.Units.duration;
}

type stats = {
  ingressed : int;
  delivered : int;
  drop_in : int;
  drop_out : int;
  unroutable : int;
  port_drops : int;
  partition_drops : int;
}

(* Observation points for an external tracing plane (e.g. the rack
   experiment's cross-fabric span emitter): admission, crossbar
   completion, transmit completion. Purely passive — the switch never
   consults them for behaviour, so arming them cannot perturb the
   determinism contract. *)
type hooks = {
  on_ingress : port:int -> time:Sim.Units.time -> Net.Frame.t -> unit;
  on_forward :
    port:int -> dst:int option -> time:Sim.Units.time -> Net.Frame.t -> unit;
  on_transmit : port:int -> time:Sim.Units.time -> Net.Frame.t -> unit;
}

type t = {
  engine : Sim.Engine.t;
  ports : port_conf array;
  cap_in : int;
  cap_out : int;
  fwd_delay : Sim.Units.duration;
  route : Net.Frame.t -> int option;
  deliver : port:int -> Net.Frame.t -> unit;
  (* per-instant admission batch, newest first *)
  mutable batch : (int * Net.Frame.t) list;
  mutable sweep_armed : bool;
  (* per-ingress-port FIFO (head in service while [busy_in]) *)
  in_q : Net.Frame.t Queue.t array;
  busy_in : bool array;
  (* per-egress-port occupancy and transmitter busy-until *)
  out_len : int array;
  out_busy : Sim.Units.time array;
  (* counters live on the Obs.Metrics registry (the stats record is a
     view) *)
  metrics : Obs.Metrics.t;
  c_ingressed : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_unroutable : Obs.Metrics.counter;
  c_drop_in : Obs.Metrics.counter;
  c_drop_out : Obs.Metrics.counter;
  (* per-port pcap taps and the tracing hooks; None = disarmed, one
     load-and-branch on the hot paths *)
  taps : Obs.Pcap.t option array;
  mutable hooks : hooks option;
  (* fault seams ([Fault.Rack_chaos] is the intended installer); None =
     disarmed, one load-and-branch on each consulting path. The
     predicates must be pure functions of simulated time so delivery
     (and loss) order stays a function of (arrival-time, port). *)
  mutable wedge :
    (port:int -> at:Sim.Units.time -> Sim.Units.time option) option;
  mutable brownout : (at:Sim.Units.time -> Sim.Units.time option) option;
  mutable partition : (src:int -> dst:int -> at:Sim.Units.time -> bool) option;
  (* fault-loss counters, registered lazily at arm time so a fault-free
     switch leaves the metrics snapshot untouched *)
  mutable c_port_drops : Obs.Metrics.counter option;
  mutable c_partition_drops : Obs.Metrics.counter option;
}

let create engine ~ports ?(cap_in = 64) ?(cap_out = 64)
    ?(fwd_delay = Sim.Units.ns 300) ?metrics ~route ~deliver () =
  let n = Array.length ports in
  if n = 0 then invalid_arg "Switch.create: no ports";
  if cap_in <= 0 || cap_out <= 0 then
    invalid_arg "Switch.create: non-positive queue capacity";
  if fwd_delay <= 0 then invalid_arg "Switch.create: non-positive fwd_delay";
  Array.iter
    (fun p ->
      if p.tx <= 0 || p.latency <= 0 then
        invalid_arg "Switch.create: non-positive port latency/tx")
    ports;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  {
    engine;
    ports;
    cap_in;
    cap_out;
    fwd_delay;
    route;
    deliver;
    batch = [];
    sweep_armed = false;
    in_q = Array.init n (fun _ -> Queue.create ());
    busy_in = Array.make n false;
    out_len = Array.make n 0;
    out_busy = Array.make n 0;
    metrics;
    c_ingressed = Obs.Metrics.counter metrics "switch_ingressed";
    c_delivered = Obs.Metrics.counter metrics "switch_delivered";
    c_unroutable = Obs.Metrics.counter metrics "switch_unroutable";
    c_drop_in = Obs.Metrics.counter metrics "switch_drop_in";
    c_drop_out = Obs.Metrics.counter metrics "switch_drop_out";
    taps = Array.make n None;
    hooks = None;
    wedge = None;
    brownout = None;
    partition = None;
    c_port_drops = None;
    c_partition_drops = None;
  }

let ports t = Array.length t.ports
let port_conf t p = t.ports.(p)

(* Push a candidate transmit-start time past any wedge (or brownout)
   window containing it; abutting windows are walked, the [u > start]
   guard keeps a misbehaving predicate from looping. *)
let rec past_windows f start =
  match f ~at:start with
  | Some u when u > start -> past_windows f u
  | Some _ | None -> start

(* Egress: claim a slot in [port]'s bounded output queue, serialize
   behind whatever the transmitter is already committed to, deliver at
   transmit complete. A wedged port's transmitter stalls: frames keep
   claiming slots (and serialize after the wedge lifts), overflow is
   counted as a port-failure loss, never silent. *)
let egress_enqueue t ~port frame =
  if t.out_len.(port) >= t.cap_out then begin
    match t.wedge with
    | Some f when f ~port ~at:(Sim.Engine.now t.engine) <> None ->
        (match t.c_port_drops with
        | Some c -> Obs.Metrics.incr c
        | None -> ())
    | Some _ | None ->
        Obs.Metrics.incr t.c_drop_out
  end
  else begin
    t.out_len.(port) <- t.out_len.(port) + 1;
    let now = Sim.Engine.now t.engine in
    let start = if t.out_busy.(port) > now then t.out_busy.(port) else now in
    let start =
      match t.wedge with
      | None -> start
      | Some f -> past_windows (fun ~at -> f ~port ~at) start
    in
    let finish = start + t.ports.(port).tx in
    t.out_busy.(port) <- finish;
    ignore
      (Sim.Engine.schedule_at t.engine ~at:finish (fun () ->
           t.out_len.(port) <- t.out_len.(port) - 1;
           Obs.Metrics.incr t.c_delivered;
           (match t.taps.(port) with
           | Some cap -> Obs.Pcap.add_frame cap ~time:finish frame
           | None -> ());
           (match t.hooks with
           | Some h -> h.on_transmit ~port ~time:finish frame
           | None -> ());
           t.deliver ~port frame))
  end

(* Crossbar service of one ingress port: forward the head-of-line
   frame after [fwd_delay], then keep going while the queue is
   non-empty. The head stays queued (occupying its slot) until its
   forwarding completes. A brownout defers the service *start* — a
   frame whose service began before the stall completes (service is
   non-preemptible), frames behind it back up in the ingress FIFO and
   overflow as counted drop_in. A partitioned (src, dst) pair drops
   the frame at the crossbar with its own counted loss. *)
let rec kick t p =
  if (not t.busy_in.(p)) && not (Queue.is_empty t.in_q.(p)) then begin
    t.busy_in.(p) <- true;
    let now = Sim.Engine.now t.engine in
    let start =
      match t.brownout with None -> now | Some f -> past_windows f now
    in
    ignore
      (Sim.Engine.schedule_at t.engine ~at:(start + t.fwd_delay) (fun () ->
           let frame = Queue.pop t.in_q.(p) in
           let out =
             match t.route frame with
             | Some o when o >= 0 && o < Array.length t.ports -> Some o
             | Some _ | None -> None
           in
           (match t.hooks with
           | Some h ->
               h.on_forward ~port:p ~dst:out
                 ~time:(Sim.Engine.now t.engine) frame
           | None -> ());
           (match out with
           | Some o -> (
               match t.partition with
               | Some cut when cut ~src:p ~dst:o ~at:(Sim.Engine.now t.engine)
                 ->
                   (match t.c_partition_drops with
                   | Some c -> Obs.Metrics.incr c
                   | None -> ())
               | Some _ | None -> egress_enqueue t ~port:o frame)
           | None -> Obs.Metrics.incr t.c_unroutable);
           t.busy_in.(p) <- false;
           kick t p))
  end

(* Admit the instant's batch in ascending ingress-port order. The sort
   is stable over the accumulated arrival order, but within one
   instant all times are equal, so port order alone decides. *)
let sweep t () =
  t.sweep_armed <- false;
  let batch = List.rev t.batch in
  t.batch <- [];
  let arr = Array.of_list batch in
  Array.stable_sort (fun (p, _) (q, _) -> Int.compare p q) arr;
  Array.iter
    (fun (p, frame) ->
      if Queue.length t.in_q.(p) >= t.cap_in then begin
        Obs.Metrics.incr t.c_drop_in
      end
      else begin
        Queue.push frame t.in_q.(p);
        kick t p
      end)
    arr

let ingress t ~port frame =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg "Switch.ingress: bad port";
  Obs.Metrics.incr t.c_ingressed;
  (match t.taps.(port) with
  | Some cap -> Obs.Pcap.add_frame cap ~time:(Sim.Engine.now t.engine) frame
  | None -> ());
  (match t.hooks with
  | Some h -> h.on_ingress ~port ~time:(Sim.Engine.now t.engine) frame
  | None -> ());
  t.batch <- (port, frame) :: t.batch;
  if not t.sweep_armed then begin
    t.sweep_armed <- true;
    ignore
      (Sim.Engine.schedule_at t.engine ~at:(Sim.Engine.now t.engine) (sweep t))
  end

let opt_value = function Some c -> Obs.Metrics.value c | None -> 0

let stats t =
  {
    ingressed = Obs.Metrics.value t.c_ingressed;
    delivered = Obs.Metrics.value t.c_delivered;
    drop_in = Obs.Metrics.value t.c_drop_in;
    drop_out = Obs.Metrics.value t.c_drop_out;
    unroutable = Obs.Metrics.value t.c_unroutable;
    port_drops = opt_value t.c_port_drops;
    partition_drops = opt_value t.c_partition_drops;
  }

let metrics t = t.metrics

let tap t ~port writer =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg "Switch.tap: bad port";
  t.taps.(port) <- Some writer

let set_hooks t h = t.hooks <- h

(* Arm-time counter registration keeps the fault-free metrics snapshot
   byte-identical to a switch built before these seams existed. *)
let set_port_wedge t f =
  (match (f, t.c_port_drops) with
  | Some _, None ->
      t.c_port_drops <- Some (Obs.Metrics.counter t.metrics "switch_port_drops")
  | (Some _ | None), _ -> ());
  t.wedge <- f
[@@fault_seam]

let set_brownout t f = t.brownout <- f [@@fault_seam]

let set_partition t f =
  (match (f, t.c_partition_drops) with
  | Some _, None ->
      t.c_partition_drops <-
        Some (Obs.Metrics.counter t.metrics "switch_partition_drops")
  | (Some _ | None), _ -> ());
  t.partition <- f
[@@fault_seam]
