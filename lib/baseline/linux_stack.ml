type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  threads : int;
}

let spec ?(threads = 2) ~port service =
  if threads < 1 then invalid_arg "Linux_stack.spec: threads < 1";
  { service; port; threads }

(* What the softirq leaves in a socket is one record per packet: the
   frame as [Rx.decode_into] made it, with the payload length that
   recvfrom's copy is charged for. *)
type service_rt = {
  sspec : service_spec;
  socket : Rx.t Osmodel.Socket.t;
  mutable sproc : Osmodel.Proc.process option;
      (* retained for crash/restart (threads are reachable through it) *)
}

type t = {
  engine : Sim.Engine.t;
  kern : Osmodel.Kernel.t;
  mutable nic : Nic.Dma_nic.t option;
  by_port : (int, service_rt) Hashtbl.t;
  receive : bytes -> unit;  (* the consume callback, built once *)
  mutable received : Rx.t;  (* what [receive] decoded last *)
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
  | None -> invalid_arg "Linux_stack: NIC not initialised"

let counters t = t.counters
let ctr t name = Sim.Counter.counter t.counters name

let napi_budget = 64

let rt_service rt = rt.sspec.service

(* The consume callback: the frame is decoded where it lies in the
   pooled buffer, which is recycled before the softirq delay elapses,
   into a fresh record that the socket will hold. *)
let receive t b =
  let d = Rx.create () in
  Rx.decode_into t.by_port rt_service d b;
  t.received <- d

(* A decoded frame goes to the socket its port is bound to, a request
   to its service's; one that is not a request is dropped by the
   socket's thread after the copy. A frame to an unbound port has no
   socket. *)
let deliver t d =
  match Hashtbl.find t.by_port d.Rx.port with
  | exception Not_found -> Sim.Counter.incr (ctr t "rx_no_service")
  | rt ->
      (* MAC + DMA + interrupt + softirq, attributed at the moment the
         frame reaches its socket. *)
      (match d.Rx.outcome with
      | Rx.Bad_rpc -> ()
      | Rx.No_service | Rx.No_method | Rx.Bad_args | Rx.Request ->
          span_stage t ~rpc:d.Rx.rpc_id "nic_irq");
      Osmodel.Socket.enqueue rt.socket d

(* NAPI poll in softirq context on [core]: drain the ring with a
   budget, charging kernel time per packet; unmask when empty. *)
let rec napi t ~core ~queue ~budget () =
  if not (Nic.Dma_nic.consume (nic t) ~queue t.receive) then
    Nic.Dma_nic.unmask_irq (nic t) ~queue
  else begin
    let d = t.received in
    let cost = sw.Costs.softirq_per_packet + sw.Costs.socket_demux in
    Osmodel.Cpu_account.charge
      (Osmodel.Kernel.account t.kern ~core)
      Osmodel.Cpu_account.Kernel cost;
    ignore
      (Sim.Engine.schedule_after t.engine ~after:cost (fun () ->
           deliver t d;
           if budget > 1 then napi t ~core ~queue ~budget:(budget - 1) ()
           else begin
             (* Budget exhausted: ksoftirqd would take over; model as
                continued polling after a reschedule-sized gap. *)
             Sim.Counter.incr (ctr t "napi_budget_exhausted");
             ignore
               (Sim.Engine.schedule_after t.engine
                  ~after:(Osmodel.Kernel.costs t.kern).Osmodel.Kernel.syscall
                  (napi t ~core ~queue ~budget:napi_budget))
           end))
  end

let on_rx_interrupt t ~queue =
  Nic.Dma_nic.mask_irq (nic t) ~queue;
  Sim.Counter.incr (ctr t "interrupts");
  Osmodel.Kernel.run_irq t.kern ~cost:(Sim.Units.ns 700)
    (fun ~core -> napi t ~core ~queue ~budget:napi_budget ())

(* One blocking server thread: recvfrom -> unmarshal -> handler ->
   marshal -> sendto -> doorbell -> NIC TX. *)
let rec server_loop t rt th () =
  Osmodel.Socket.recv rt.socket th (fun d ->
      let copy_cost =
        int_of_float
          (Float.round
             (sw.Costs.recv_copy_per_byte *. float_of_int d.Rx.payload_len))
      in
      Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.Kernel
        copy_cost (fun () ->
          match d.Rx.outcome with
          | Rx.Bad_rpc ->
              Sim.Counter.incr (ctr t (Rx.counter Rx.Bad_rpc));
              server_loop t rt th ()
          | (Rx.No_service | Rx.No_method | Rx.Bad_args) as outcome ->
              (* Socket wait + wakeup + recv copy + header decode. *)
              span_stage t ~rpc:d.Rx.rpc_id "socket";
              Sim.Counter.incr (ctr t (Rx.counter outcome));
              server_loop t rt th ()
          | Rx.Request ->
              span_stage t ~rpc:d.Rx.rpc_id "socket";
              handle_rpc t rt th d))

and handle_rpc t rt th (r : Rx.t) =
  let deser_cost =
    Rpc.Deser_cost.cost Rpc.Deser_cost.software
      ~fields:(Rpc.Value.field_count r.Rx.args)
      ~bytes:r.Rx.arg_bytes
  in
  let mdef = r.Rx.mdef in
  Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.User
    (deser_cost + mdef.Rpc.Interface.handler_time) (fun () ->
      let result = mdef.Rpc.Interface.execute r.Rx.args in
      let body_bytes = Rpc.Codec.encoded_size result in
      let marshal_cost =
        Rpc.Deser_cost.cost Rpc.Deser_cost.software_marshal
          ~fields:(Rpc.Value.field_count result)
          ~bytes:body_bytes
      in
      Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.User
        marshal_cost (fun () -> send_reply t rt th r ~body_bytes result))

(* The reply is encoded in one pass when the send path has run: the
   result is written straight into the message buffer. *)
and send_reply t rt th r ~body_bytes result =
  let rpc_id = r.Rx.rpc_id in
  (* Deserialize + handler + marshal, all user time. *)
  span_stage t ~rpc:rpc_id "app";
  let send_cost =
    sw.Costs.send_path
    + int_of_float
        (Float.round
           (sw.Costs.send_copy_per_byte *. float_of_int body_bytes))
    + sw.Costs.doorbell
  in
  Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.Kernel send_cost
    (fun () ->
      let out = Rx.reply r result in
      Sim.Counter.incr (ctr t "tx_frames");
      span_stage t ~rpc:rpc_id "send";
      Nic.Dma_nic.transmit (nic t) out
        ~via:(fun f ->
          span_stage t ~rpc:rpc_id "tx_dma";
          Obs.Tracer.rpc_end t.tracer ~rpc:rpc_id (Sim.Engine.now t.engine);
          t.egress f);
      server_loop t rt th ())

let spawn_server_threads t rt proc =
  for i = 0 to rt.sspec.threads - 1 do
    let th_ref = ref None in
    let body () =
      match !th_ref with
      | Some th -> server_loop t rt th ()
      | None -> assert false
    in
    let th =
      Osmodel.Kernel.spawn t.kern proc
        ~name:
          (Printf.sprintf "%s-t%d" rt.sspec.service.Rpc.Interface.service_name
             i)
        body
    in
    th_ref := Some th;
    Osmodel.Kernel.wake t.kern th
  done

(* Crash/restart lifecycle. A killed Linux service gives the client NO
   transport-level signal: in-socket datagrams stay queued (the kernel
   owns the socket buffer) and in-handler requests vanish with the
   process — clients discover the crash only by timeout. That silence
   is the baseline the NACKing stacks are contrasted against. *)
let find_service t ~service_id =
  Hashtbl.fold
    (fun _port rt found ->
      if Int.equal rt.sspec.service.Rpc.Interface.service_id service_id then
        Some rt
      else found)
    t.by_port None

let service_rt_by_id t ~service_id =
  match find_service t ~service_id with
  | Some rt -> rt
  | None ->
      invalid_arg (Printf.sprintf "Linux_stack: unknown service %d" service_id)

let kill_service t ~service_id =
  let rt = service_rt_by_id t ~service_id in
  match rt.sproc with
  | Some proc when proc.Osmodel.Proc.alive ->
      Obs.Metrics.incr t.m_kills;
      Osmodel.Kernel.kill t.kern proc
  | Some _ | None -> ()

let restart_service t ~service_id =
  let rt = service_rt_by_id t ~service_id in
  match rt.sproc with
  | Some proc when not proc.Osmodel.Proc.alive ->
      Obs.Metrics.incr t.m_respawns;
      Osmodel.Kernel.respawn t.kern proc;
      (* Fresh threads; the socket and its backlog survived the crash,
         so queued datagrams are served first. *)
      spawn_server_threads t rt proc
  | Some _ | None -> ()

let create engine ~profile ~ncores ?(fault = Fault.Plan.none) ?metrics
    ?tracer ?sanitize ~services ~egress () =
  if List.is_empty services then
    invalid_arg "Linux_stack.create: no services";
  let kern = Osmodel.Kernel.create engine ~ncores () in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Obs.Tracer.create ()
  in
  let rec t =
    {
      engine;
      kern;
      nic = None;
      by_port = Hashtbl.create 64;
      receive = (fun b -> receive t b);
      received = Rx.create ();
      egress;
      counters = Sim.Counter.group "linux";
      metrics;
      m_kills = Obs.Metrics.counter metrics "kills";
      m_respawns = Obs.Metrics.counter metrics "respawns";
      tracer;
      trk = Obs.Tracer.track tracer "linux";
    }
  in
  let dnic =
    Nic.Dma_nic.create engine profile ~fault ~metrics
      ~on_rx_interrupt:(fun ~queue -> on_rx_interrupt t ~queue)
      ()
  in
  t.nic <- Some dnic;
  (match sanitize with
  | None -> ()
  | Some z ->
      (* Buffers parked in un-consumed ring descriptors at cutoff are
         accounted, not leaked. *)
      ignore
        (Sanitize.Pool_watch.attach z ~name:"linux-rx-pool"
           ~in_flight:(fun () -> Nic.Dma_nic.rx_pending dnic)
           (Nic.Dma_nic.pool dnic)));
  List.iter
    (fun sspec ->
      let rt =
        { sspec; socket = Osmodel.Socket.create kern (); sproc = None }
      in
      if Hashtbl.mem t.by_port sspec.port then
        invalid_arg
          (Printf.sprintf "Linux_stack.create: port %d taken" sspec.port);
      let id = sspec.service.Rpc.Interface.service_id in
      if Option.is_some (find_service t ~service_id:id) then
        invalid_arg
          (Printf.sprintf "Linux_stack.create: service id %d taken" id);
      Hashtbl.add t.by_port sspec.port rt;
      let proc =
        Osmodel.Kernel.new_process kern
          ~name:sspec.service.Rpc.Interface.service_name
      in
      rt.sproc <- Some proc;
      spawn_server_threads t rt proc)
    services;
  t

let ingress t frame =
  Rx.open_span t.tracer ~track:t.trk (Sim.Engine.now t.engine) frame;
  Nic.Dma_nic.rx_from_wire (nic t) frame

let driver t =
  Harness.Driver.make ~name:"linux"
    ~ingress:(fun f -> ingress t f)
    ~kernel:t.kern ~counters:t.counters ~metrics:t.metrics
    ()
