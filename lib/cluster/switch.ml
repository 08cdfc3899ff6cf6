(* Top-of-rack switch: finite per-port ingress/egress FIFOs around a
   deterministic crossbar.

   The tie-break discipline is the whole point. Frames arriving at the
   same simulated instant are not served in event-schedule order —
   that order depends on who scheduled what when — but staged per
   ingress port and admitted in ascending port order. The staging
   trick: the first arrival of an instant schedules the sweep at the
   same timestamp; every event already queued for that instant was
   scheduled earlier (lower sequence number), so the sweep runs after
   all of them and sees every frame of the instant. It drains the
   ports' staging FIFOs in ascending port order, which is a stable
   sort of the instant's arrivals by port. (An ingress scheduled *at*
   the instant, after the sweep has run, simply stages for a second
   sweep — still deterministic, just a later admission round.)

   Downstream of admission everything is FIFO, so the (arrival-time,
   port) order is preserved: each ingress queue serves heads in order,
   one per [fwd_delay] (300 ns); same-instant crossbar completions reach the
   egress queues in admission order; each egress transmitter
   serializes one frame per [tx] and fires [deliver] at transmit
   complete. Every loss path is counted, never silent.

   Nothing on a frame's path allocates. The sweep, each port's
   crossbar completion and each port's transmit completion are
   closures built once at [create], and the frames they act on wait in
   per-port {!Sim.Fifo}s: a port has at most one crossbar service in
   flight, and its transmit completions are strictly increasing (each
   starts no earlier than the previous one finished, and [tx > 0]), so
   each event pops the oldest frame of its port's FIFO. *)

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
  route : Net.Frame.t -> int option;
  deliver : port:int -> Net.Frame.t -> unit;
  (* this instant's arrivals, per ingress port, awaiting the sweep *)
  staged : Net.Frame.t Sim.Fifo.t array;
  mutable sweep_armed : bool;
  mutable sweep : unit -> unit;
  (* per-ingress-port FIFO (head in service while [busy_in]) and each
     port's crossbar completion *)
  in_q : Net.Frame.t Sim.Fifo.t array;
  busy_in : bool array;
  mutable forward : (unit -> unit) array;
  (* per-egress-port frames in transmission (the port's occupancy),
     transmitter busy-until, and transmit completion *)
  out_q : Net.Frame.t Sim.Fifo.t array;
  out_busy : Sim.Units.time array;
  mutable transmit : (unit -> unit) array;
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

let ports t = Array.length t.ports
let port_conf t p = t.ports.(p)

(* Push a candidate transmit-start time past any wedge (or brownout)
   window containing it; abutting windows are walked, the [u > start]
   guard keeps a misbehaving predicate from looping. *)
let rec past_windows f start =
  match f ~at:start with
  | Some u when u > start -> past_windows f u
  | Some _ | None -> start

(* Transmit complete on [port]: the oldest frame in transmission leaves
   for its device. *)
let[@hot_path] transmit t port () =
  let frame = Sim.Fifo.pop t.out_q.(port) in
  let now = Sim.Engine.now t.engine in
  Obs.Metrics.incr t.c_delivered;
  (match t.taps.(port) with
  | Some cap -> Obs.Pcap.add_frame cap ~time:now frame
  | None -> ());
  (match t.hooks with
  | Some h -> h.on_transmit ~port ~time:now frame
  | None -> ());
  t.deliver ~port frame

(* Egress: claim a slot in [port]'s bounded output queue, serialize
   behind whatever the transmitter is already committed to, deliver at
   transmit complete. A wedged port's transmitter stalls: frames keep
   claiming slots (and serialize after the wedge lifts), overflow is
   counted as a port-failure loss, never silent. *)
let[@hot_path] egress_enqueue t ~port frame =
  if Sim.Fifo.length t.out_q.(port) >= t.cap_out then begin
    match t.wedge with
    | Some f when Option.is_some (f ~port ~at:(Sim.Engine.now t.engine)) ->
        (match t.c_port_drops with
        | Some c -> Obs.Metrics.incr c
        | None -> ())
    | Some _ | None ->
        Obs.Metrics.incr t.c_drop_out
  end
  else begin
    Sim.Fifo.push t.out_q.(port) frame;
    let now = Sim.Engine.now t.engine in
    let start = if t.out_busy.(port) > now then t.out_busy.(port) else now in
    let start =
      match t.wedge with
      | None -> start
      | Some f -> past_windows ((fun ~at -> f ~port ~at) [@alloc_ok]) start
    in
    let finish = start + t.ports.(port).tx in
    t.out_busy.(port) <- finish;
    ignore (Sim.Engine.schedule_at t.engine ~at:finish t.transmit.(port))
  end

(* The crossbar's per-frame forwarding time. *)
let fwd_delay = Sim.Units.ns 300

(* Crossbar service of one ingress port: forward the head-of-line
   frame after [fwd_delay], then keep going while the queue is
   non-empty. The head stays queued (occupying its slot) until its
   forwarding completes. A brownout defers the service *start* — a
   frame whose service began before the stall completes (service is
   non-preemptible), frames behind it back up in the ingress FIFO and
   overflow as counted drop_in. *)
let[@hot_path] kick t p =
  if (not t.busy_in.(p)) && Sim.Fifo.length t.in_q.(p) > 0 then begin
    t.busy_in.(p) <- true;
    let now = Sim.Engine.now t.engine in
    let start =
      match t.brownout with None -> now | Some f -> past_windows f now
    in
    ignore
      (Sim.Engine.schedule_at t.engine ~at:(start + fwd_delay)
         t.forward.(p))
  end

(* Port [p]'s head-of-line frame has crossed the crossbar: route it,
   then serve the next. A partitioned (src, dst) pair drops the frame
   at the crossbar with its own counted loss. *)
let[@hot_path] forward t p () =
  let frame = Sim.Fifo.pop t.in_q.(p) in
  let now = Sim.Engine.now t.engine in
  let routed = t.route frame in
  let out =
    match routed with
    | Some o when o >= 0 && o < Array.length t.ports -> o
    | Some _ | None -> -1
  in
  (match t.hooks with
  | Some h ->
      h.on_forward ~port:p ~dst:(if out >= 0 then routed else None) ~time:now
        frame
  | None -> ());
  (if out >= 0 then
     match t.partition with
     | Some cut when cut ~src:p ~dst:out ~at:now -> (
         match t.c_partition_drops with
         | Some c -> Obs.Metrics.incr c
         | None -> ())
     | Some _ | None -> egress_enqueue t ~port:out frame
   else Obs.Metrics.incr t.c_unroutable);
  t.busy_in.(p) <- false;
  kick t p

(* Admit the instant's arrivals in ascending ingress-port order, each
   port's in arrival order: the stable sort of the instant by port. *)
let[@hot_path] sweep t () =
  t.sweep_armed <- false;
  for p = 0 to Array.length t.ports - 1 do
    let staged = t.staged.(p) in
    while Sim.Fifo.length staged > 0 do
      let frame = Sim.Fifo.pop staged in
      if Sim.Fifo.length t.in_q.(p) >= t.cap_in then
        Obs.Metrics.incr t.c_drop_in
      else begin
        Sim.Fifo.push t.in_q.(p) frame;
        kick t p
      end
    done
  done

let[@hot_path] ingress t ~port frame =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg "Switch.ingress: bad port";
  let now = Sim.Engine.now t.engine in
  Obs.Metrics.incr t.c_ingressed;
  (match t.taps.(port) with
  | Some cap -> Obs.Pcap.add_frame cap ~time:now frame
  | None -> ());
  (match t.hooks with
  | Some h -> h.on_ingress ~port ~time:now frame
  | None -> ());
  Sim.Fifo.push t.staged.(port) frame;
  if not t.sweep_armed then begin
    t.sweep_armed <- true;
    ignore (Sim.Engine.schedule_at t.engine ~at:now t.sweep)
  end

let create engine ~ports ?(cap_in = 64) ?(cap_out = 64) ?metrics ~route
    ~deliver () =
  let n = Array.length ports in
  if n = 0 then invalid_arg "Switch.create: no ports";
  if cap_in <= 0 || cap_out <= 0 then
    invalid_arg "Switch.create: non-positive queue capacity";
  Array.iter
    (fun p ->
      if p.tx <= 0 || p.latency <= 0 then
        invalid_arg "Switch.create: non-positive port latency/tx")
    ports;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let fifos () = Array.init n (fun _ -> Sim.Fifo.create Net.Frame.empty) in
  let t =
    {
      engine;
      ports;
      cap_in;
      cap_out;
      route;
      deliver;
      staged = fifos ();
      sweep_armed = false;
      sweep = ignore;
      in_q = fifos ();
      busy_in = Array.make n false;
      forward = [||];
      out_q = fifos ();
      out_busy = Array.make n 0;
      transmit = [||];
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
  in
  t.sweep <- sweep t;
  t.forward <- Array.init n (forward t);
  t.transmit <- Array.init n (transmit t);
  t

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
