(* Receive path: a poller takes a packet slot, then a descriptor from
   its NIC queue with [Dma_nic.consume], whose callback is the slot's
   own decode closure: [Rx.decode_into] checks and reads the request
   straight from the pooled receive buffer into the slot's record, so
   no copy of the frame, view or request record is made and the buffer
   goes back to the pool at once. What the record keeps is only what
   the handler and the reply need: the two endpoints and the decoded
   arguments. An empty ring puts the slot back. The per-packet rx cost
   then elapses; the counters and the poll_rx span fire after it, as
   the packet's processing completes on the core. The reply is encoded
   in one pass, the result written straight into the message buffer. *)

type service_spec = { service : Rpc.Interface.service_def; port : int }

let spec ~port service = { service; port }

(* A service port's entry in the flow table: the service and the
   poller that statically owns it. *)
type binding = { service : Rpc.Interface.service_def; poller : int }

(* A packet in a poller's hands, from the rx cost to the doorbell, or a
   pending spin resume, rides a slot of its poller's pool whose stage
   closures are built once, when the slot is made. The slot keeps the
   thread that took it: if the process crashes while the packet is in
   flight, every later stage finds that thread exited, frees the slot
   and does nothing else (the frame is already consumed from the ring,
   so it is simply lost — bypass gives the client no transport-level
   crash signal). The poller's current thread would not do: after a
   restart it is the new, live one. *)
type packet = {
  mutable th : Osmodel.Proc.thread;  (* the thread that took the slot *)
  rx : Rx.t;  (* the descriptor [decode] read *)
  decode : bytes -> unit;  (* the slot's consume callback *)
  mutable result : Rpc.Value.t;  (* the handler's, while it is marshalled *)
  after_rx : unit -> unit;  (* the per-packet rx cost has elapsed *)
  after_handler : unit -> unit;  (* deserialisation and the handler *)
  after_marshal : unit -> unit;  (* marshalling and the doorbell *)
  after_spin : unit -> unit;  (* a spin resume's poll iteration *)
}

type poller = {
  pidx : int;
  core : int;
  mutable pthread : Osmodel.Proc.thread;
  mutable spin_since : Sim.Units.time;
      (* when the poller parked on an empty ring; [not_spinning] while
         it is busy or dead *)
  packets : packet Sim.Slot_pool.t;
}

(* Simulated time is never negative. *)
let not_spinning = -1

type t = {
  engine : Sim.Engine.t;
  kern : Osmodel.Kernel.t;
  mutable nic : Nic.Dma_nic.t option;
  by_port : (int, binding) Hashtbl.t;
  mutable pollers : poller array;
  mutable proc : Osmodel.Proc.process option;
  egress : Net.Frame.t -> unit;
  counters : Sim.Counter.group;
  metrics : Obs.Metrics.t;
  m_kills : Obs.Metrics.counter;
  m_respawns : Obs.Metrics.counter;
  tracer : Obs.Tracer.t;
  trk : int;
}

(* The one software cost table. *)
let sw = Costs.default

let kernel t = t.kern

let span_stage t ~rpc name =
  Obs.Tracer.stage t.tracer ~rpc ~track:t.trk ~name (Sim.Engine.now t.engine)

let nic t =
  match t.nic with
  | Some n -> n
  | None -> invalid_arg "Bypass_stack: NIC not initialised"

let counters t = t.counters
let ctr t name = Sim.Counter.counter t.counters name

let charge_user t p cost =
  Osmodel.Cpu_account.charge
    (Osmodel.Kernel.account t.kern ~core:p.core)
    Osmodel.Cpu_account.User cost

let binding_service b = b.service

(* Clear a slot and give it back to its poller's pool. *)
let[@hot_path] free p s =
  Rx.clear s.rx;
  s.result <- Rpc.Value.Unit;
  Sim.Slot_pool.release p.packets s

(* Run-to-completion handling of one frame on the poller's core. The
   poller thread owns its core outright, so we charge its ledger
   directly and sequence work with engine delays. *)
let[@hot_path] rec poll_loop t p =
  let s = take_packet t p in
  if Nic.Dma_nic.consume (nic t) ~queue:p.pidx s.decode then begin
    let cost = sw.Costs.poll_rx_per_packet + sw.Costs.bypass_demux in
    charge_user t p cost;
    ignore (Sim.Engine.schedule_after t.engine ~after:cost s.after_rx)
  end
  else begin
    free p s;
    (* Park the (simulated) spin: the ring's produce callback resumes
       us and we back-charge the spin window. *)
    p.spin_since <- Sim.Engine.now t.engine
  end

(* The per-packet rx cost has elapsed: DMA delivery + poll-loop spin +
   per-packet rx cost close the poll_rx stage. *)
and[@hot_path] rx_done t p s =
  if Osmodel.Proc.is_exited s.th then free p s
  else
    let r = s.rx in
    match r.Rx.outcome with
    | Rx.Bad_rpc ->
        free p s;
        drop t p (Rx.counter Rx.Bad_rpc)
    | (Rx.No_service | Rx.No_method | Rx.Bad_args) as outcome ->
        let rpc_id = r.Rx.rpc_id in
        free p s;
        span_stage t ~rpc:rpc_id "poll_rx";
        drop t p (Rx.counter outcome)
    | Rx.Request ->
        span_stage t ~rpc:r.Rx.rpc_id "poll_rx";
        let deser =
          Rpc.Deser_cost.cost Rpc.Deser_cost.software
            ~fields:(Rpc.Value.field_count r.args)
            ~bytes:r.arg_bytes
        in
        let work = deser + r.mdef.Rpc.Interface.handler_time in
        charge_user t p work;
        ignore
          (Sim.Engine.schedule_after t.engine ~after:work s.after_handler)

and[@hot_path] drop t p counter =
  Sim.Counter.incr (ctr t counter);
  poll_loop t p

(* Deserialisation and the handler's time have elapsed: run it, and
   marshal its result. *)
and[@hot_path] handled t p s =
  if Osmodel.Proc.is_exited s.th then free p s
  else begin
    let r = s.rx in
    span_stage t ~rpc:r.Rx.rpc_id "app";
    let result = r.mdef.Rpc.Interface.execute r.args in
    let marshal =
      Rpc.Deser_cost.cost Rpc.Deser_cost.software_marshal
        ~fields:(Rpc.Value.field_count result)
        ~bytes:(Rpc.Codec.encoded_size result)
      + sw.Costs.doorbell
    in
    charge_user t p marshal;
    s.result <- result;
    ignore (Sim.Engine.schedule_after t.engine ~after:marshal s.after_marshal)
  end

(* Marshalling and the doorbell are done: the reply goes to the NIC and
   the poller takes its next packet. *)
and[@hot_path] marshalled t p s =
  if Osmodel.Proc.is_exited s.th then free p s
  else begin
    let rpc_id = s.rx.Rx.rpc_id in
    let out = Rx.reply s.rx s.result in
    free p s;
    Sim.Counter.incr (ctr t "tx_frames");
    span_stage t ~rpc:rpc_id "marshal";
    let via =
      if Obs.Tracer.is_enabled t.tracer then
        (fun f ->
          span_stage t ~rpc:rpc_id "tx_dma";
          Obs.Tracer.rpc_end t.tracer ~rpc:rpc_id (Sim.Engine.now t.engine);
          t.egress f)
        [@alloc_ok]  (* tracing only *)
      else t.egress
    in
    Nic.Dma_nic.transmit (nic t) out ~via;
    Sim.Counter.incr (ctr t "rpcs_handled");
    poll_loop t p
  end

(* A spin resume's poll iteration has elapsed. *)
and[@hot_path] spun t p s =
  let th = s.th in
  free p s;
  if not (Osmodel.Proc.is_exited th) then poll_loop t p

and[@hot_path] take_packet t p =
  let s =
    if Sim.Slot_pool.is_empty p.packets then new_packet t p
    else Sim.Slot_pool.take p.packets
  in
  s.th <- p.pthread;
  s

and new_packet t p =
  let rx = Rx.create () in
  let rec s =
    {
      th = p.pthread;
      rx;
      decode = (fun b -> Rx.decode_into t.by_port binding_service rx b);
      result = Rpc.Value.Unit;
      after_rx = (fun () -> rx_done t p s);
      after_handler = (fun () -> handled t p s);
      after_marshal = (fun () -> marshalled t p s);
      after_spin = (fun () -> spun t p s);
    }
  in
  s

(* The ring's produce callback: a parked poller resumes after the
   current poll iteration comes around. *)
let[@hot_path] resume_from_spin t p =
  let start = p.spin_since in
  if Osmodel.Proc.is_exited p.pthread || Int.equal start not_spinning then ()
  else begin
    p.spin_since <- not_spinning;
    let spun = Sim.Engine.now t.engine - start in
    (* Round up to whole poll iterations — the packet waits for the
       current ring check to come around. *)
    let iters = 1 + (spun / max 1 sw.Costs.poll_iteration) in
    Osmodel.Cpu_account.charge
      (Osmodel.Kernel.account t.kern ~core:p.core)
      Osmodel.Cpu_account.Spin
      (iters * sw.Costs.poll_iteration);
    let s = take_packet t p in
    ignore
      (Sim.Engine.schedule_after t.engine ~after:sw.Costs.poll_iteration
         s.after_spin)
  end

let hosts t ~service_id =
  Hashtbl.fold
    (fun _ b acc ->
      acc || Int.equal b.service.Rpc.Interface.service_id service_id)
    t.by_port false

let create engine ~profile ~ncores ?pollers ?(fault = Fault.Plan.none)
    ?metrics ?tracer ?sanitize ?steering ~services ~egress () =
  if List.is_empty services then
    invalid_arg "Bypass_stack.create: no services";
  let npollers = match pollers with Some n -> n | None -> ncores in
  if npollers < 1 || npollers > ncores then
    invalid_arg "Bypass_stack.create: pollers out of [1, ncores]";
  let kern = Osmodel.Kernel.create engine ~ncores () in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Obs.Tracer.create ()
  in
  let t =
    {
      engine;
      kern;
      nic = None;
      by_port = Hashtbl.create 64;
      pollers = [||];
      proc = None;
      egress;
      counters = Sim.Counter.group "bypass";
      metrics;
      m_kills = Obs.Metrics.counter metrics "kills";
      m_respawns = Obs.Metrics.counter metrics "respawns";
      tracer;
      trk = Obs.Tracer.track tracer "bypass";
    }
  in
  (* One RX queue per poller; interrupts permanently masked. *)
  let nic_config =
    {
      Nic.Dma_nic.default_config with
      Nic.Dma_nic.nqueues = npollers;
      coalesce_interval = 0;
    }
  in
  let dnic =
    Nic.Dma_nic.create engine profile ~config:nic_config ~fault ~metrics
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for q = 0 to npollers - 1 do
    Nic.Dma_nic.mask_irq dnic ~queue:q
  done;
  t.nic <- Some dnic;
  (match sanitize with
  | None -> ()
  | Some z ->
      ignore
        (Sanitize.Pool_watch.attach z ~name:"bypass-rx-pool"
           ~in_flight:(fun () -> Nic.Dma_nic.rx_pending dnic)
           (Nic.Dma_nic.pool dnic)));
  (* Static service -> poller assignment, round robin. *)
  List.iteri
    (fun i sspec ->
      if Hashtbl.mem t.by_port sspec.port then
        invalid_arg
          (Printf.sprintf "Bypass_stack.create: port %d taken" sspec.port);
      let id = sspec.service.Rpc.Interface.service_id in
      if hosts t ~service_id:id then
        invalid_arg
          (Printf.sprintf "Bypass_stack.create: service id %d taken" id);
      Hashtbl.add t.by_port sspec.port
        { service = sspec.service; poller = i mod npollers })
    services;
  (match steering with
  | Some verified ->
      (* Application-defined receive-side steering: a statically
         verified program replaces the port→poller flow director. *)
      Nic.Steer_verify.install ~metrics ~nic:dnic verified
  | None ->
      (* Legacy flow director: each service's port to its poller's
         queue. Predates the verified steering path; raw table write
         reviewed — total (default queue 0), in-range by construction
         (poller index mod npollers), zero per-packet cost charged. *)
      (Nic.Dma_nic.set_steering dnic (fun frame ->
           match Hashtbl.find t.by_port frame.Net.Frame.dst.Net.Frame.port with
           | b -> b.poller
           | exception Not_found -> 0)
       [@steer_seam]));
  (* Spawn pinned poller threads. *)
  let proc = Osmodel.Kernel.new_process kern ~name:"bypass-app" in
  t.proc <- Some proc;
  t.pollers <-
    Array.init npollers (fun pidx ->
        let p_ref = ref None in
        let body () =
          match !p_ref with
          | Some p -> poll_loop t p
          | None -> assert false
        in
        let pthread =
          Osmodel.Kernel.spawn kern proc
            ~name:(Printf.sprintf "poller%d" pidx)
            ~affinity:pidx body
        in
        let p =
          {
            pidx;
            core = pidx;
            pthread;
            spin_since = not_spinning;
            packets = Sim.Slot_pool.create ();
          }
        in
        p_ref := Some p;
        p);
  Array.iter
    (fun p ->
      let ring = Nic.Dma_nic.rx_ring dnic ~queue:p.pidx in
      Nic.Ring.on_produce ring (fun () -> resume_from_spin t p);
      Osmodel.Kernel.wake kern p.pthread)
    t.pollers;
  t

let ingress t frame =
  Rx.open_span t.tracer ~track:t.trk (Sim.Engine.now t.engine) frame;
  Nic.Dma_nic.rx_from_wire (nic t) frame

let flush_spin t =
  (* Charge the open spin window of every idle poller up to now; the
     window restarts so repeated flushes do not double-charge. *)
  let now = Sim.Engine.now t.engine in
  Array.iter
    (fun p ->
      let start = p.spin_since in
      if (not (Int.equal start not_spinning)) && now > start then begin
        Osmodel.Cpu_account.charge
          (Osmodel.Kernel.account t.kern ~core:p.core)
          Osmodel.Cpu_account.Spin (now - start);
        p.spin_since <- now
      end)
    t.pollers

let check_service t ~service_id =
  if not (hosts t ~service_id) then
    invalid_arg
      (Printf.sprintf "Bypass_stack: unknown service %d" service_id)

let app_proc t =
  match t.proc with
  | Some p -> p
  | None -> invalid_arg "Bypass_stack: no process"

(* A bypass app is one process that owns every ring: a crash in any
   service takes down the whole address space, pollers and all. The
   rings survive in the NIC, so arrivals during the outage accumulate
   until the ring overflows (counted by the DMA NIC) — no NACK, no
   kernel-held backlog. *)
let kill_service t ~service_id =
  check_service t ~service_id;
  let proc = app_proc t in
  if proc.Osmodel.Proc.alive then begin
    (* Close every open spin window first so the CPU ledgers account
       the time actually spent spinning before the crash. *)
    flush_spin t;
    Array.iter (fun p -> p.spin_since <- not_spinning) t.pollers;
    Osmodel.Kernel.kill t.kern proc;
    Obs.Metrics.incr t.m_kills
  end

let restart_service t ~service_id =
  check_service t ~service_id;
  let proc = app_proc t in
  if not proc.Osmodel.Proc.alive then begin
    Osmodel.Kernel.respawn t.kern proc;
    Obs.Metrics.incr t.m_respawns;
    (* Fresh poller threads on the same pinned cores; each immediately
       drains whatever survived in its RX ring. The ring on_produce
       callbacks close over the mutable poller records, so they keep
       working against the new threads. *)
    Array.iter
      (fun p ->
        let pthread =
          Osmodel.Kernel.spawn t.kern proc
            ~name:(Printf.sprintf "poller%d" p.pidx)
            ~affinity:p.core
            (fun () -> poll_loop t p)
        in
        p.pthread <- pthread;
        p.spin_since <- not_spinning;
        Osmodel.Kernel.wake t.kern pthread)
      t.pollers
  end

let poller_of_port t ~port =
  match Hashtbl.find t.by_port port with
  | b -> b.poller
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Bypass_stack: unknown port %d" port)

let driver t =
  Harness.Driver.make ~name:"bypass"
    ~ingress:(fun f -> ingress t f)
    ~kernel:t.kern ~counters:t.counters ~metrics:t.metrics
    ()
