type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  threads : int;
}

let spec ?(threads = 2) ~port service =
  if threads < 1 then invalid_arg "Linux_stack.spec: threads < 1";
  { service; port; threads }

type service_rt = {
  sspec : service_spec;
  socket : Net.Frame.t Osmodel.Socket.t;
  mutable sproc : Osmodel.Proc.process option;
      (* retained for crash/restart (threads are reachable through it) *)
}

type t = {
  engine : Sim.Engine.t;
  kern : Osmodel.Kernel.t;
  mutable nic : Nic.Dma_nic.t option;
  by_port : (int, service_rt) Hashtbl.t;
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

(* Stage boundaries inside the kernel path see only the frame; the
   header read to recover the RPC id is paid only when the tracer is
   on. *)
let span_stage_frame t frame name =
  if Obs.Tracer.is_enabled t.tracer then
    let payload = frame.Net.Frame.payload in
    match Rpc.Wire_format.check payload with
    | Ok () -> span_stage t ~rpc:(Rpc.Wire_format.rpc_id payload) name
    | Error _ -> ()

let nic t =
  match t.nic with
  | Some n -> n
  | None -> invalid_arg "Linux_stack: NIC not initialised"

let counters t = t.counters
let ctr t name = Sim.Counter.counter t.counters name

let napi_budget = 64

(* NAPI poll in softirq context on [core]: drain the ring with a
   budget, charging kernel time per packet; unmask when empty. The
   descriptor's bytes are parsed in place and its pooled buffer is
   recycled before the softirq delay elapses, so only frames with a
   registered consumer are copied out of the ring. *)
let rec napi t ~core ~queue ~budget () =
  match
    Nic.Dma_nic.consume (nic t) ~queue (fun v ->
        match Hashtbl.find_opt t.by_port v.Net.Frame.udp.Net.Udp.dst_port with
        | None -> None
        | Some rt -> Some (rt, Net.Frame.of_view v))
  with
  | None -> Nic.Dma_nic.unmask_irq (nic t) ~queue
  | Some delivery ->
      let cost = sw.Costs.softirq_per_packet + sw.Costs.socket_demux in
      Osmodel.Cpu_account.charge
        (Osmodel.Kernel.account t.kern ~core)
        Osmodel.Cpu_account.Kernel cost;
      ignore
        (Sim.Engine.schedule_after t.engine ~after:cost (fun () ->
             (match delivery with
             | None -> Sim.Counter.incr (ctr t "rx_no_service")
             | Some (rt, frame) ->
                 (* MAC + DMA + interrupt + softirq, attributed at the
                    moment the frame reaches its socket. *)
                 span_stage_frame t frame "nic_irq";
                 Osmodel.Socket.enqueue rt.socket frame);
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

let on_rx_interrupt t ~queue =
  Nic.Dma_nic.mask_irq (nic t) ~queue;
  Sim.Counter.incr (ctr t "interrupts");
  Osmodel.Kernel.run_irq t.kern ~cost:(Sim.Units.ns 700)
    (fun ~core -> napi t ~core ~queue ~budget:napi_budget ())

(* One blocking server thread: recvfrom -> unmarshal -> handler ->
   marshal -> sendto -> doorbell -> NIC TX. *)
let rec server_loop t rt th () =
  Osmodel.Socket.recv rt.socket th (fun frame ->
      let payload = frame.Net.Frame.payload in
      let copy_cost =
        int_of_float
          (Float.round
             (sw.Costs.recv_copy_per_byte
             *. float_of_int (Bytes.length payload)))
      in
      Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.Kernel
        copy_cost (fun () ->
          match Rpc.Wire_format.check payload with
          | Error _ ->
              Sim.Counter.incr (ctr t "rx_bad_rpc");
              server_loop t rt th ()
          | Ok () -> handle_rpc t rt th frame))

(* The header is read and the arguments decoded in place. *)
and handle_rpc t rt th frame =
  let payload = frame.Net.Frame.payload in
  let rpc_id = Rpc.Wire_format.rpc_id payload in
  (* Socket wait + wakeup + recv copy + header decode. *)
  span_stage t ~rpc:rpc_id "socket";
  match
    Rpc.Interface.method_by_id rt.sspec.service
      (Rpc.Wire_format.method_id payload)
  with
  | exception Not_found ->
      Sim.Counter.incr (ctr t "rx_no_method");
      server_loop t rt th ()
  | mdef -> (
      let pos = Rpc.Wire_format.body_offset payload in
      let arg_bytes = Bytes.length payload - pos in
      match
        Rpc.Codec.decode_sub mdef.Rpc.Interface.request payload ~pos
          ~len:arg_bytes
      with
      | Error _ ->
          Sim.Counter.incr (ctr t "rx_bad_args");
          server_loop t rt th ()
      | Ok args ->
          let deser_cost =
            Rpc.Deser_cost.cost Rpc.Deser_cost.software
              ~fields:(Rpc.Value.field_count args)
              ~bytes:arg_bytes
          in
          Osmodel.Kernel.run_for t.kern th ~kind:Osmodel.Cpu_account.User
            (deser_cost + mdef.Rpc.Interface.handler_time) (fun () ->
              let result = mdef.Rpc.Interface.execute args in
              let body_bytes = Rpc.Codec.encoded_size result in
              let marshal_cost =
                Rpc.Deser_cost.cost Rpc.Deser_cost.software_marshal
                  ~fields:(Rpc.Value.field_count result)
                  ~bytes:body_bytes
              in
              Osmodel.Kernel.run_for t.kern th
                ~kind:Osmodel.Cpu_account.User marshal_cost (fun () ->
                  send_reply t rt th frame ~rpc_id ~body_bytes result)))

(* The reply is encoded in one pass when the send path has run: the
   result is written straight into the message buffer. *)
and send_reply t rt th frame ~rpc_id ~body_bytes result =
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
      let request = frame.Net.Frame.payload in
      let out =
        Net.Frame.make
          ~src:(Net.Frame.dst_endpoint frame)
          ~dst:(Net.Frame.src_endpoint frame)
          (Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Response
             ?ctx:(Rpc.Wire_format.ctx request) ~rpc_id
             ~service_id:(Rpc.Wire_format.service_id request)
             ~method_id:(Rpc.Wire_format.method_id request)
             result)
      in
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
let service_rt_by_id t ~service_id =
  let found = ref None in
  Hashtbl.iter
    (fun _port rt ->
      if rt.sspec.service.Rpc.Interface.service_id = service_id then
        found := Some rt)
    t.by_port;
  match !found with
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
  if services = [] then invalid_arg "Linux_stack.create: no services";
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
      egress;
      counters = Sim.Counter.group "linux";
      metrics;
      m_kills = Obs.Metrics.counter metrics "kills";
      m_respawns = Obs.Metrics.counter metrics "respawns";
      tracer;
      trk = Obs.Tracer.track tracer "linux";
    }
  in
  let nic_config = Nic.Dma_nic.default_config in
  let dnic =
    Nic.Dma_nic.create engine profile ~config:nic_config ~fault ~metrics
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
           ~in_flight:(fun () ->
             let occ = ref 0 in
             for q = 0 to nic_config.Nic.Dma_nic.nqueues - 1 do
               occ := !occ + Nic.Ring.occupancy (Nic.Dma_nic.rx_ring dnic ~queue:q)
             done;
             !occ)
           (Nic.Dma_nic.pool dnic)));
  List.iter
    (fun sspec ->
      let rt =
        { sspec; socket = Osmodel.Socket.create kern (); sproc = None }
      in
      if Hashtbl.mem t.by_port sspec.port then
        invalid_arg
          (Printf.sprintf "Linux_stack.create: port %d taken" sspec.port);
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
  if Obs.Tracer.is_enabled t.tracer then begin
    let payload = frame.Net.Frame.payload in
    match Rpc.Wire_format.check payload with
    | Ok () when Rpc.Wire_format.is_request payload ->
        Obs.Tracer.rpc_begin t.tracer ~rpc:(Rpc.Wire_format.rpc_id payload)
          ~track:t.trk (Sim.Engine.now t.engine)
    | Ok () | Error _ -> ()
  end;
  Nic.Dma_nic.rx_from_wire (nic t) frame

let driver t =
  Harness.Driver.make ~name:"linux"
    ~ingress:(fun f -> ingress t f)
    ~kernel:t.kern ~counters:t.counters ~metrics:t.metrics
    ()
