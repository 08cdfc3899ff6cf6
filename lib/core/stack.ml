type binding = Os_integrated | Static

type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  min_workers : int;
  max_workers : int;
}

let spec ?(min_workers = 1) ?(max_workers = 1) ~port service =
  if min_workers < 0 || max_workers < 1 || min_workers > max_workers then
    invalid_arg "Stack.spec: inconsistent worker bounds";
  { service; port; min_workers; max_workers }

type inflight =
  | App of {
      mdef : Rpc.Interface.method_def;
      args : Rpc.Value.t;
      svc_id : int;  (* owning service, for the crash-teardown sweep *)
      reply_src : Net.Frame.endpoint;  (* server side *)
      reply_dst : Net.Frame.endpoint;  (* client side *)
      mutable full_body : bytes;  (* response bytes beyond the line *)
      arrived : Sim.Units.time;
      arg_bytes : int;
      path : Telemetry.path;
    }
  | Dispatch_ack of { svc_id : int; widx : int }

type worker = {
  widx : int;
  mutable wthread : Osmodel.Proc.thread;
      (* replaced on process restart (the endpoint survives, the
         thread does not) *)
  wep : Endpoint.t;
  mutable wtx : Tx_endpoint.t option;
      (* transmit lines for nested calls (Figure 4's disjoint TX set) *)
  mutable active : bool;
  mutable starting : bool;
  mutable cpu_idx : int;
  mutable empty_cycles : int;
  affinity : int option;  (* pinned core (Static binding), kept on respawn *)
}

type service_rt = {
  sspec : service_spec;
  sproc : Osmodel.Proc.process;
  mutable workers : worker array;
  mutable active_count : int;
  limbo : Message.request Queue.t;
      (* NIC-SRAM survivors of a crash, redelivered on restart *)
}

type dispatcher = { dthread : Osmodel.Proc.thread; dep : Endpoint.t }

type remote = {
  server : Net.Frame.endpoint;  (* remote machine + service port *)
  response_schema : Rpc.Schema.t;
}

type t = {
  engine : Sim.Engine.t;
  cfg : Config.t;
  binding : binding;
  kern : Osmodel.Kernel.t;
  ha : Coherence.Home_agent.t;
  smirror : Sched_mirror.t option;  (* [None] under a Static binding *)
  dmx : Demux.t;
  sched : Nic_sched.t;
  egress : Net.Frame.t -> unit;
  counters : Sim.Counter.group;
  inflight : (int64, inflight) Hashtbl.t;
  services : (int, service_rt) Hashtbl.t;
  mutable dispatchers : dispatcher array;
  parked_eps : (int, Endpoint.t) Hashtbl.t;  (* tid -> endpoint *)
  telemetry : Telemetry.t;
  metrics : Obs.Metrics.t;
  tracer : Obs.Tracer.t;
  trk : int;  (* span track for the rpc stage chain *)
  trk_detail : int;  (* span track for NIC pipeline sub-intervals *)
  remotes : (int, remote) Hashtbl.t;  (* service_id -> where it lives *)
  mutable address : Net.Frame.endpoint option;  (* our own identity *)
  nested_conts : Rpc.Value.t Rpc.Continuation.t;
      (* reply continuations for nested calls (paper section 6) *)
  mutable next_dispatch_id : int64;
  mutable mac : Nic.Mac.t option;
  mutable handled_hook : (unit -> unit) option;
      (* per-handled-RPC callback (server fault injector) *)
  (* Robustness counters — on the metrics registry, whose export drops
     zero entries, so fault-free/shed-off reports are unchanged. *)
  m_kills : Obs.Metrics.counter;
  m_respawns : Obs.Metrics.counter;
  m_stale : Obs.Metrics.counter;  (* stale_dispatch_caught *)
  m_crash_nacks : Obs.Metrics.counter;
  m_requeues : Obs.Metrics.counter;
  m_sheds : Obs.Metrics.counter;
  m_drop_full : Obs.Metrics.counter;
  m_drop_shed : Obs.Metrics.counter;
  sanitize : Sanitize.t option;
  mutable mwatch : Sanitize.Mirror_watch.watch option;
      (* installed after [t] exists (its closures render [t]'s state) *)
}

let kernel t = t.kern
let home_agent t = t.ha
let mirror t = t.smirror
let counters t = t.counters
let config t = t.cfg
let sanitizer t = t.sanitize

let name_of_binding = function
  | Os_integrated -> "lauberhorn"
  | Static -> "ccnic-static"

(* Whether the NIC believes the service's process is alive: the
   mirror's push-lagged view, or, with no mirror (Static binding), the
   kill itself. *)
let nic_alive t sv =
  match t.smirror with
  | Some m -> Sched_mirror.pid_alive m ~pid:sv.sproc.Osmodel.Proc.pid
  | None -> sv.sproc.Osmodel.Proc.alive

(* Sanitizer probe at the moment a request is handed to a worker
   endpoint: the mirror must still believe the target pid alive —
   a dispatch after the death push landed would target a swept
   process. One branch when no sanitizer is attached. *)
let sanitize_dispatch t sv =
  match t.mwatch with
  | None -> ()
  | Some mw ->
      Sanitize.Mirror_watch.dispatch mw ~pid:sv.sproc.Osmodel.Proc.pid
        ~alive:(nic_alive t sv)

let ctr t name = Sim.Counter.counter t.counters name

(* Close the stage running since this RPC's cursor at the current sim
   time. One branch when the tracer is disabled. *)
let span_stage t ~rpc name =
  Obs.Tracer.stage t.tracer ~rpc ~track:t.trk ~name (Sim.Engine.now t.engine)

(* Detail spans decomposing the NIC pipeline stage, emitted at the
   moment the pipeline completes (they reach back from now). *)
let pipeline_details t ~rpc (b : Pipeline.breakdown) ~decrypt =
  if Obs.Tracer.is_enabled t.tracer then begin
    let stop = Sim.Engine.now t.engine in
    let seg = ref (stop - b.Pipeline.total - decrypt) in
    let detail name d =
      if d > 0 then begin
        Obs.Tracer.detail t.tracer ~rpc ~track:t.trk_detail ~name ~start:!seg
          ~stop:(!seg + d);
        seg := !seg + d
      end
    in
    detail "parse" b.Pipeline.parse;
    detail "demux" b.Pipeline.demux;
    detail "hw_unmarshal" b.Pipeline.deser;
    detail "sched_lookup" b.Pipeline.mirror_lookup;
    detail "decrypt" decrypt
  end
let prof t = t.cfg.Config.profile
let line_bytes t = (prof t).Coherence.Interconnect.cache_line_bytes

(* DRAM read cost for DMA-delivered payloads (≈25 GB/s streaming). *)
let mem_read_cost bytes = 100 + (bytes / 25)

(* Nested-call reply ids live in their own tag range so responses can
   be routed to the waiting worker instead of the wire. *)
let nested_tag = Int64.shift_left 1L 61

let nested_rpc_id cont = Int64.logor nested_tag (Int64.of_int cont)

let nested_cont_of rpc_id =
  if
    Int64.logand rpc_id nested_tag <> 0L
    && Int64.logand rpc_id (Int64.shift_left 1L 62) = 0L
  then Some (Int64.to_int (Int64.logand rpc_id 0xffff_ffffL))
  else None

let service_rt t service_id =
  match Hashtbl.find_opt t.services service_id with
  | Some rt -> rt
  | None ->
      invalid_arg (Printf.sprintf "Stack: unknown service %d" service_id)

(* ---------- Worker (CPU user-mode loop, Figure 4/5 left side) -------- *)

(* A thread that parks while other runnable work waits on its core is
   answered with an immediate TRYAGAIN (paper section 5.1: a blocked
   communication load is the clean descheduling point), sending it
   through the kernel so the queued thread can run. *)
let park_would_starve t th =
  match th.Osmodel.Proc.state with
  | Osmodel.Proc.Running cid ->
      Osmodel.Kernel.runqueue_length t.kern ~core:cid > 0
  | Osmodel.Proc.Ready | Osmodel.Proc.Blocked | Osmodel.Proc.Exited -> false

let respond_line t w ~rpc_id ~status ~body =
  let cap = Message.response_inline_capacity ~line_bytes:(line_bytes t) in
  let inline_len = min cap (Bytes.length body) in
  let rest = Bytes.length body - inline_len in
  let resp_aux_count =
    if rest <= 0 then 0 else (rest + line_bytes t - 1) / line_bytes t
  in
  let resp =
    {
      Message.resp_rpc_id = rpc_id;
      status;
      total_len = Bytes.length body;
      inline_body = Net.Slice.make body ~off:0 ~len:inline_len;
      resp_aux_count;
    }
  in
  Coherence.Home_agent.cpu_store t.ha
    (Endpoint.ctrl_line w.wep w.cpu_idx)
    (Message.encode_response ~line_bytes:(line_bytes t) resp)

let rec worker_loop t sv w () = park_worker t sv w

and park_worker t sv w =
  (* Bind the thread at park time: if the process is killed while this
     load is parked and later restarted, the fill completion must be
     judged against the thread that parked, not the respawned one. *)
  let th = w.wthread in
  Osmodel.Kernel.stall_begin t.kern th;
  Coherence.Home_agent.cpu_load t.ha
    (Endpoint.ctrl_line w.wep w.cpu_idx)
    (fun fill ->
      if Osmodel.Proc.is_exited th then
        (* Killed while parked; the kill already closed the stall and
           the teardown sweep owns whatever this fill carried. *)
        ()
      else begin
      Osmodel.Kernel.stall_end t.kern th;
      match fill with
      | Coherence.Home_agent.Tryagain -> worker_tryagain t sv w
      | Coherence.Home_agent.Data line -> (
          w.empty_cycles <- 0;
          match Message.decode line with
          | Ok (Message.Request r) -> worker_handle t sv w r
          | Ok (Message.Tryagain | Message.Retire | Message.Kernel_dispatch _)
          | Error _ ->
              Sim.Counter.incr (ctr t "worker_bad_line");
              worker_loop t sv w ())
      end)

and worker_tryagain t sv w =
  Sim.Counter.incr (ctr t "worker_tryagain");
  w.empty_cycles <- w.empty_cycles + 1;
  if
    w.empty_cycles >= t.cfg.Config.tryagains_before_yield
    && sv.active_count > sv.sspec.min_workers
    (* A request may have raced into the endpoint between the TRYAGAIN
       decision on the NIC and this code running: never deactivate with
       work (or an uncollected response) in flight. *)
    && Endpoint.in_flight w.wep = 0
    && Endpoint.queue_depth w.wep = 0
  then begin
    (* Scale down: give the core back for good until re-dispatched. *)
    w.active <- false;
    sv.active_count <- sv.active_count - 1;
    Sim.Counter.incr (ctr t "worker_deactivate");
    Osmodel.Kernel.block t.kern w.wthread (fun () ->
        w.empty_cycles <- 0;
        worker_loop t sv w ())
  end
  else
    (* The paper's user-mode loop: a TRYAGAIN sends the process into
       the kernel (schedule()); it re-parks if nothing else runs. *)
    Osmodel.Kernel.yield t.kern w.wthread (fun () -> worker_loop t sv w ())

and worker_handle t sv w (r : Message.request) =
  match Hashtbl.find_opt t.inflight r.Message.rpc_id with
  | None | Some (Dispatch_ack _) ->
      Sim.Counter.incr (ctr t "worker_orphan_request");
      worker_loop t sv w ()
  | Some (App app) ->
      span_stage t ~rpc:r.Message.rpc_id "queue";
      let dma_read =
        if r.Message.via_dma then mem_read_cost r.Message.total_args else 0
      in
      let work = app.mdef.Rpc.Interface.handler_time + dma_read in
      let finish result =
        span_stage t ~rpc:r.Message.rpc_id "handler";
        let body = Rpc.Codec.encode result in
        app.full_body <- body;
        respond_line t w ~rpc_id:r.Message.rpc_id ~status:0 ~body;
        w.cpu_idx <- 1 - w.cpu_idx;
        Sim.Counter.incr (ctr t "rpcs_handled");
        (match t.handled_hook with Some f -> f () | None -> ());
        worker_loop t sv w ()
      in
      Osmodel.Kernel.run_for t.kern w.wthread ~kind:Osmodel.Cpu_account.User
        work (fun () ->
          match app.mdef.Rpc.Interface.nested with
          | None -> finish (app.mdef.Rpc.Interface.execute app.args)
          | Some h ->
              let call ~service_id ~method_id v k =
                nested_call t w ~service_id ~method_id v k
              in
              h ~call app.args ~done_:finish)

(* This machine's own network identity (for outbound nested calls). *)
and self_address t =
  match t.address with Some a -> a | None -> Harness.Traffic.server_address

(* Assemble a nested-request frame and emit it: hairpin through our own
   MAC for local services, out the egress (the wire) for remote ones. *)
and tx_emit t ~cont ~service_id ~method_id ~dst body =
  let self = self_address t in
  let src = { self with Net.Frame.port = 60_000 + (cont mod 5_000) } in
  let frame =
    Net.Frame.make ~src ~dst
      (Rpc.Wire_format.encode
         {
           Rpc.Wire_format.rpc_id = nested_rpc_id cont;
           service_id;
           method_id;
           kind = Rpc.Wire_format.Request;
           ctx = None;
           body;
         })
  in
  if Net.Ip_addr.equal dst.Net.Frame.ip self.Net.Frame.ip then
    match t.mac with
    | Some mac -> Nic.Mac.rx mac frame
    | None -> invalid_arg "Stack: MAC not initialised"
  else begin
    Sim.Counter.incr (ctr t "nested_remote_sends");
    t.egress frame
  end

(* NIC-side consumer of a worker's TX CONTROL lines: decode the stored
   line image back into a request and emit it. *)
and on_tx_line t image =
  match Message.decode image with
  | Ok (Message.Request r) -> (
      match Demux.port_of_service t.dmx ~service_id:r.Message.service_id with
      | None -> Sim.Counter.incr (ctr t "tx_line_no_service")
      | Some port ->
          Sim.Counter.incr (ctr t "tx_line_sends");
          let cont =
            match nested_cont_of r.Message.rpc_id with
            | Some c -> c
            | None -> 0
          in
          tx_emit t ~cont ~service_id:r.Message.service_id
            ~method_id:r.Message.method_id
            ~dst:{ (self_address t) with Net.Frame.port }
            (Net.Slice.to_bytes r.Message.inline_args))
  | Ok (Message.Kernel_dispatch _ | Message.Tryagain | Message.Retire)
  | Error _ ->
      Sim.Counter.incr (ctr t "tx_bad_line")

(* Issue a nested RPC from a running worker: small requests go out
   through the worker's TX CONTROL lines (Figure 4's disjoint transmit
   set); larger ones fall back to direct frame injection. The worker
   blocks and resumes when the reply continuation fires (paper section
   6: "rapidly create a dedicated end-point for an RPC reply"). *)
and nested_call t w ~service_id ~method_id v k =
  let dst =
    match Demux.port_of_service t.dmx ~service_id with
    | Some port -> Some { (self_address t) with Net.Frame.port }
    | None -> (
        match Hashtbl.find_opt t.remotes service_id with
        | Some r -> Some r.server
        | None -> None)
  in
  match dst with
  | None ->
      Sim.Counter.incr (ctr t "nested_no_service");
      k Rpc.Value.Unit
  | Some dst ->
      let reply = ref Rpc.Value.Unit in
      let cont =
        Rpc.Continuation.alloc t.nested_conts (fun result ->
            reply := result;
            Osmodel.Kernel.wake t.kern w.wthread)
      in
      Sim.Counter.incr (ctr t "nested_calls");
      let body = Rpc.Codec.encode v in
      (match w.wtx with
      | Some wtx
        when Bytes.length body <= Config.inline_capacity t.cfg
             && Net.Ip_addr.equal dst.Net.Frame.ip
                  (self_address t).Net.Frame.ip ->
          let image =
            Message.encode ~line_bytes:(line_bytes t)
              (Message.Request
                 {
                   Message.rpc_id = nested_rpc_id cont;
                   service_id;
                   method_id;
                   code_ptr = 0L;
                   data_ptr = 0L;
                   total_args = Bytes.length body;
                   inline_args = Net.Slice.of_bytes body;
                   aux_count = 0;
                   via_dma = false;
                 })
          in
          Tx_endpoint.cpu_send wtx image ~accepted:(fun () -> ())
      | Some _ | None ->
          tx_emit t ~cont ~service_id ~method_id ~dst body);
      Osmodel.Kernel.block t.kern w.wthread (fun () -> k !reply)

let activate_worker t sv w =
  w.starting <- false;
  if Osmodel.Proc.is_exited w.wthread then
    (* An activation raced the kill: by the time the dispatcher ran the
       KERNEL_DISPATCH, the target process was dead. *)
    Sim.Counter.incr (ctr t "dispatch_to_dead")
  else if not w.active then begin
    w.active <- true;
    sv.active_count <- sv.active_count + 1;
    Sim.Counter.incr (ctr t "worker_activate");
    Osmodel.Kernel.wake t.kern w.wthread
  end

(* ---------- Dispatcher kernel threads (Figure 5 slow path) ----------- *)

let dispatch_handling_cost = Sim.Units.ns 300

let rec dispatcher_loop t d idx () = park_dispatcher t d idx

and park_dispatcher t d idx =
  Osmodel.Kernel.stall_begin t.kern d.dthread;
  Coherence.Home_agent.cpu_load t.ha
    (Endpoint.ctrl_line d.dep idx)
    (fun fill ->
      Osmodel.Kernel.stall_end t.kern d.dthread;
      match fill with
      | Coherence.Home_agent.Tryagain ->
          (* Periodic schedule() as a regular kernel thread. *)
          Osmodel.Kernel.yield t.kern d.dthread (fun () ->
              dispatcher_loop t d idx ())
      | Coherence.Home_agent.Data line -> (
          match Message.decode line with
          | Ok (Message.Kernel_dispatch r) ->
              Osmodel.Kernel.run_for t.kern d.dthread
                ~kind:Osmodel.Cpu_account.Kernel dispatch_handling_cost
                (fun () ->
                  (match Hashtbl.find_opt t.inflight r.Message.rpc_id with
                  | Some (Dispatch_ack { svc_id; widx }) ->
                      let sv = service_rt t svc_id in
                      activate_worker t sv sv.workers.(widx)
                  | Some (App _) | None ->
                      Sim.Counter.incr (ctr t "dispatcher_orphan"));
                  (* Follow the line protocol: ack into the same line,
                     then monitor the other one. *)
                  let ack =
                    Message.encode_response ~line_bytes:(line_bytes t)
                      {
                        Message.resp_rpc_id = r.Message.rpc_id;
                        status = 0;
                        total_len = 0;
                        inline_body = Net.Slice.empty;
                        resp_aux_count = 0;
                      }
                  in
                  Coherence.Home_agent.cpu_store t.ha
                    (Endpoint.ctrl_line d.dep idx) ack;
                  Osmodel.Kernel.yield t.kern d.dthread (fun () ->
                      dispatcher_loop t d (1 - idx) ()))
          | Ok Message.Retire ->
              (* Reallocation request: leave the CPU entirely. *)
              Sim.Counter.incr (ctr t "dispatcher_retired");
              Osmodel.Kernel.block t.kern d.dthread (fun () ->
                  dispatcher_loop t d idx ())
          | Ok (Message.Request _ | Message.Tryagain) | Error _ ->
              Sim.Counter.incr (ctr t "dispatcher_bad_line");
              dispatcher_loop t d idx ()))

let pick_dispatcher t =
  let parked =
    Array.to_list t.dispatchers
    |> List.find_opt (fun d -> Endpoint.parked d.dep)
  in
  match parked with
  | Some d -> Some d
  | None ->
      Array.to_list t.dispatchers
      |> List.sort (fun a b ->
             Int.compare
               (Endpoint.queue_depth a.dep + Endpoint.in_flight a.dep)
               (Endpoint.queue_depth b.dep + Endpoint.in_flight b.dep))
      |> (function [] -> None | d :: _ -> Some d)

let request_worker_activation t sv w =
  if (not w.active) && not w.starting then begin
    match pick_dispatcher t with
    | None -> Sim.Counter.incr (ctr t "dispatch_no_dispatcher")
    | Some d ->
        w.starting <- true;
        let id = t.next_dispatch_id in
        t.next_dispatch_id <- Int64.add id 1L;
        Hashtbl.replace t.inflight id
          (Dispatch_ack
             { svc_id = sv.sspec.service.Rpc.Interface.service_id;
               widx = w.widx });
        let msg =
          {
            Message.rpc_id = id;
            service_id = sv.sspec.service.Rpc.Interface.service_id;
            method_id = w.widx;
            code_ptr = 0L;
            data_ptr = 0L;
            total_args = 0;
            inline_args = Net.Slice.empty;
            aux_count = 0;
            via_dma = false;
          }
        in
        Sim.Counter.incr (ctr t "slow_path_dispatch");
        if not (Endpoint.deliver ~kernel_dispatch:true d.dep msg) then begin
          Hashtbl.remove t.inflight id;
          w.starting <- false;
          Sim.Counter.incr (ctr t "dispatch_dropped")
        end
  end

(* ---------- NIC receive pipeline and dispatch ------------------------ *)

let choose_worker sv =
  (* Prefer a parked active worker (zero-latency handoff), then the
     least-loaded active worker, then an inactive one (needs a slow-path
     activation). *)
  let best_parked = ref None and best_active = ref None in
  Array.iter
    (fun w ->
      if w.active then begin
        if Endpoint.parked w.wep && Option.is_none !best_parked then
          best_parked := Some w;
        let load = Endpoint.in_flight w.wep + Endpoint.queue_depth w.wep in
        match !best_active with
        | Some (_, l) when l <= load -> ()
        | Some _ | None -> best_active := Some (w, load)
      end)
    sv.workers;
  match !best_parked with
  | Some w -> (w, `Fast)
  | None -> (
      match !best_active with
      | Some (w, _) -> (w, `Queued)
      | None -> (sv.workers.(0), `Inactive))

let scale_decision t sv =
  let service = sv.sspec.service.Rpc.Interface.service_id in
  let queue_depth =
    Array.fold_left
      (fun acc w -> acc + Endpoint.queue_depth w.wep)
      0 sv.workers
  in
  let handler_time =
    match sv.sspec.service.Rpc.Interface.methods with
    | m :: _ -> m.Rpc.Interface.handler_time
    | [] -> Sim.Units.ns 500
  in
  Nic_sched.decide t.sched ~service ~queue_depth ~workers:sv.active_count
    ~handler_time

let tx_mac_delay = Sim.Units.ns 200

(* An explicit transport-level reject on the wire (Error_reply): the
   client sees why its request did not complete instead of inferring a
   silent drop from a timeout. *)
let nack t ~rpc_id ~service_id ~src ~dst ~code =
  let reply =
    {
      Rpc.Wire_format.rpc_id;
      service_id;
      method_id = 0;
      kind = Rpc.Wire_format.Error_reply code;
      ctx = Obs.Tracer.context_of t.tracer ~rpc:rpc_id;
      body = Bytes.empty;
    }
  in
  let frame = Net.Frame.make ~src ~dst (Rpc.Wire_format.encode reply) in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:tx_mac_delay (fun () ->
         Sim.Counter.incr (ctr t "tx_frames");
         Obs.Tracer.rpc_end t.tracer ~rpc:rpc_id (Sim.Engine.now t.engine);
         t.egress frame))

let dispatch_request t (entry : Demux.entry) frame
    (wire : Rpc.Wire_format.t) (mdef : Rpc.Interface.method_def) args =
  let sv =
    service_rt t entry.Demux.service.Rpc.Interface.service_id
  in
  let rpc_id = wire.Rpc.Wire_format.rpc_id in
  if Hashtbl.mem t.inflight rpc_id then
    Sim.Counter.incr (ctr t "duplicate_rpc_id")
  else if not (nic_alive t sv) then begin
    (* The NIC believes the target process is dead (the death push has
       landed, or the Static kill swept it): refuse on the wire rather
       than dispatch to a corpse. *)
    Obs.Metrics.incr t.m_crash_nacks;
    nack t ~rpc_id
      ~service_id:entry.Demux.service.Rpc.Interface.service_id
      ~src:(Net.Frame.dst_endpoint frame) ~dst:(Net.Frame.src_endpoint frame)
      ~code:Rpc.Wire_format.err_dead
  end
  else begin
    let body = wire.Rpc.Wire_format.body in
    let arg_bytes = Bytes.length body in
    let window = Config.endpoint_window t.cfg in
    let via_dma =
      arg_bytes > t.cfg.Config.dma_threshold || arg_bytes > window
    in
    let inline_cap = Config.inline_capacity t.cfg in
    let inline_len = min inline_cap arg_bytes in
    let aux_count =
      if via_dma then 0
      else
        let rest = arg_bytes - inline_len in
        if rest <= 0 then 0 else (rest + line_bytes t - 1) / line_bytes t
    in
    let msg =
      {
        Message.rpc_id;
        service_id = entry.Demux.service.Rpc.Interface.service_id;
        method_id = mdef.Rpc.Interface.method_id;
        code_ptr =
          Demux.code_ptr entry ~method_id:mdef.Rpc.Interface.method_id;
        data_ptr = entry.Demux.data_ptr;
        total_args = arg_bytes;
        inline_args = Net.Slice.make body ~off:0 ~len:inline_len;
        aux_count;
        via_dma;
      }
    in
    (* With admission control armed the decision is taken once, before
       the arrival is accepted (so a Shed never occupies queue space);
       with it off, the decision is taken after delivery, exactly as
       the pre-admission-control stack did. A Static binding has no
       admission control. *)
    let early_decision =
      match t.binding with
      | Os_integrated when t.cfg.Config.shed -> Some (scale_decision t sv)
      | Os_integrated | Static -> None
    in
    match early_decision with
    | Some Nic_sched.Shed ->
        Obs.Metrics.incr t.m_sheds;
        Obs.Metrics.incr t.m_drop_shed;
        nack t ~rpc_id
          ~service_id:entry.Demux.service.Rpc.Interface.service_id
          ~src:(Net.Frame.dst_endpoint frame)
          ~dst:(Net.Frame.src_endpoint frame)
          ~code:Rpc.Wire_format.err_shed
    | Some (Nic_sched.Steady | Nic_sched.Add_worker | Nic_sched.Release_worker)
    | None ->
    Nic_sched.on_arrival t.sched
      ~service:entry.Demux.service.Rpc.Interface.service_id
      ~now:(Sim.Engine.now t.engine);
    let w, path = choose_worker sv in
    Hashtbl.replace t.inflight rpc_id
      (App
         {
           mdef;
           args;
           svc_id = entry.Demux.service.Rpc.Interface.service_id;
           reply_src = Net.Frame.dst_endpoint frame;
           reply_dst = Net.Frame.src_endpoint frame;
           full_body = Bytes.empty;
           arrived = Sim.Engine.now t.engine;
           arg_bytes;
           path =
             (match path with
             | `Fast -> Telemetry.Fast
             | `Queued -> Telemetry.Queued
             | `Inactive -> Telemetry.Cold);
         });
    sanitize_dispatch t sv;
    if Endpoint.deliver w.wep msg then begin
      (match path with
      | `Fast -> Sim.Counter.incr (ctr t "fast_path")
      | `Queued -> Sim.Counter.incr (ctr t "queued_path")
      | `Inactive ->
          Sim.Counter.incr (ctr t "cold_path");
          request_worker_activation t sv w);
      (* NIC-driven scale-up when queues build. *)
      let decision =
        match early_decision with
        | Some d -> d
        | None -> scale_decision t sv
      in
      match decision with
      | Nic_sched.Add_worker -> (
          let candidate =
            Array.to_list sv.workers
            |> List.find_opt (fun w -> (not w.active) && not w.starting)
          in
          match candidate with
          | Some w when sv.active_count < sv.sspec.max_workers ->
              request_worker_activation t sv w
          | Some _ | None -> ())
      | Nic_sched.Release_worker | Nic_sched.Steady | Nic_sched.Shed -> ()
    end
    else begin
      Hashtbl.remove t.inflight rpc_id;
      Sim.Counter.incr (ctr t "nic_queue_drop");
      Obs.Metrics.incr t.m_drop_full
    end
  end

let nic_rx t frame =
  Sim.Counter.incr (ctr t "rx_frames");
  match Rpc.Wire_format.decode frame.Net.Frame.payload with
  | Error _ -> Sim.Counter.incr (ctr t "rx_bad_rpc")
  | Ok wire
    when not (Rpc.Wire_format.is_request wire) -> (
      (* A response from a remote machine to one of our nested calls. *)
      match nested_cont_of wire.Rpc.Wire_format.rpc_id with
      | Some cont -> (
          match
            Hashtbl.find_opt t.remotes wire.Rpc.Wire_format.service_id
          with
          | Some r -> (
              match
                Rpc.Codec.decode r.response_schema wire.Rpc.Wire_format.body
              with
              | Ok v ->
                  Sim.Counter.incr (ctr t "nested_remote_replies");
                  if not (Rpc.Continuation.fire t.nested_conts cont v) then
                    Sim.Counter.incr (ctr t "nested_orphan_reply")
              | Error _ -> Sim.Counter.incr (ctr t "nested_bad_reply"))
          | None -> Sim.Counter.incr (ctr t "rx_stray_response"))
      | None -> Sim.Counter.incr (ctr t "rx_stray_response"))
  | Ok wire -> (
      span_stage t ~rpc:wire.Rpc.Wire_format.rpc_id "mac";
      match Demux.lookup t.dmx ~port:frame.Net.Frame.udp.Net.Udp.dst_port with
      | None -> Sim.Counter.incr (ctr t "rx_no_service")
      | Some entry -> (
          match
            Rpc.Interface.find_method entry.Demux.service
              wire.Rpc.Wire_format.method_id
          with
          | None -> Sim.Counter.incr (ctr t "rx_no_method")
          | Some mdef -> (
              match
                Rpc.Codec.decode mdef.Rpc.Interface.request
                  wire.Rpc.Wire_format.body
              with
              | Error _ -> Sim.Counter.incr (ctr t "rx_bad_args")
              | Ok args ->
                  let breakdown =
                    Pipeline.rx t.cfg
                      ~mirror_lookup:
                        (match t.smirror with
                        | Some m -> Sched_mirror.lookup_cost m
                        | None -> 0)
                      ~fields:(Rpc.Value.field_count args)
                      ~arg_bytes:(Bytes.length wire.Rpc.Wire_format.body)
                  in
                  let decrypt =
                    if t.cfg.Config.encrypt then
                      Crypto.cost Crypto.aes_gcm_nic
                        ~bytes:(Net.Frame.wire_size frame)
                    else 0
                  in
                  ignore
                    (Sim.Engine.schedule_after t.engine
                       ~after:(breakdown.Pipeline.total + decrypt)
                       (fun () ->
                         pipeline_details t ~rpc:wire.Rpc.Wire_format.rpc_id
                           breakdown ~decrypt;
                         span_stage t ~rpc:wire.Rpc.Wire_format.rpc_id
                           "nic_pipeline";
                         dispatch_request t entry frame wire mdef args)))))

(* ---------- Response collection and egress --------------------------- *)

let on_endpoint_response t (resp : Message.response) =
  match Hashtbl.find_opt t.inflight resp.Message.resp_rpc_id with
  | None -> Sim.Counter.incr (ctr t "orphan_response")
  | Some (Dispatch_ack _) ->
      Hashtbl.remove t.inflight resp.Message.resp_rpc_id
  | Some (App app)
    when Option.is_some (nested_cont_of resp.Message.resp_rpc_id)
         && Net.Ip_addr.equal app.reply_dst.Net.Frame.ip
              (self_address t).Net.Frame.ip ->
      (* A reply to one of OUR nested calls, hairpinned locally. A
         request from another machine may carry that machine's nested
         tag in its id — those take the normal wire-reply path below. *)
      Hashtbl.remove t.inflight resp.Message.resp_rpc_id;
      Nic_sched.on_complete t.sched ~service:app.svc_id;
      let result =
        match
          Rpc.Codec.decode app.mdef.Rpc.Interface.response app.full_body
        with
        | Ok v -> v
        | Error _ ->
            Sim.Counter.incr (ctr t "nested_bad_reply");
            Rpc.Value.Unit
      in
      let cont =
        match nested_cont_of resp.Message.resp_rpc_id with
        | Some c -> c
        | None -> assert false
      in
      (* Reply delivery to the waiting worker's reply end-point: one
         coherent fill. *)
      ignore
        (Sim.Engine.schedule_after t.engine
           ~after:(prof t).Coherence.Interconnect.load_response (fun () ->
             if not (Rpc.Continuation.fire t.nested_conts cont result) then
               Sim.Counter.incr (ctr t "nested_orphan_reply")))
  | Some (App app) ->
      Hashtbl.remove t.inflight resp.Message.resp_rpc_id;
      span_stage t ~rpc:resp.Message.resp_rpc_id "collect";
      Nic_sched.on_complete t.sched ~service:app.svc_id;
      (* Fidelity check: the inline prefix collected from the cache
         line must match the response body the handler produced. *)
      let prefix_ok =
        Net.Slice.is_prefix_of resp.Message.inline_body app.full_body
      in
      if not prefix_ok then Sim.Counter.incr (ctr t "response_corrupt");
      Telemetry.record t.telemetry ~service_id:app.svc_id ~path:app.path
        ~latency:(Sim.Engine.now t.engine - app.arrived)
        ~bytes_in:app.arg_bytes
        ~bytes_out:(Bytes.length app.full_body);
      let reply =
        {
          (* The reply carries the request's ids: clients pick the
             response schema by (service, method). *)
          Rpc.Wire_format.rpc_id = resp.Message.resp_rpc_id;
          service_id = app.svc_id;
          method_id = app.mdef.Rpc.Interface.method_id;
          kind =
            (if resp.Message.status = 0 then Rpc.Wire_format.Response
             else Rpc.Wire_format.Error_reply resp.Message.status);
          ctx =
            Obs.Tracer.context_of t.tracer ~rpc:resp.Message.resp_rpc_id;
          body = app.full_body;
        }
      in
      let frame =
        Net.Frame.make ~src:app.reply_src ~dst:app.reply_dst
          (Rpc.Wire_format.encode reply)
      in
      let encrypt =
        if t.cfg.Config.encrypt then
          Crypto.cost Crypto.aes_gcm_nic
            ~bytes:(Net.Frame.wire_size frame)
        else 0
      in
      ignore
        (Sim.Engine.schedule_after t.engine ~after:(tx_mac_delay + encrypt)
           (fun () ->
             Sim.Counter.incr (ctr t "tx_frames");
             span_stage t ~rpc:resp.Message.resp_rpc_id "tx";
             Obs.Tracer.rpc_end t.tracer ~rpc:resp.Message.resp_rpc_id
               (Sim.Engine.now t.engine);
             t.egress frame))

(* ---------- Crash/restart lifecycle ---------------------------------- *)

(* NIC-side teardown, run when the death push LANDS (not when the kill
   happens — the stale window in between is real and survivable). The
   NIC-SRAM queue contents survive into the service's limbo queue for
   redelivery after restart; whatever was already staged into (or
   parked on) the CONTROL lines was in the dead process's hands and is
   NACKed from the in-flight table — caught, never silently lost. *)
let sweep_dead_service t sv =
  let sid = sv.sspec.service.Rpc.Interface.service_id in
  let limbo_ids = Hashtbl.create 16 in
  Array.iter
    (fun w ->
      List.iter
        (fun ((msg : Message.request), _kernel_dispatch) ->
          Hashtbl.replace limbo_ids msg.Message.rpc_id ();
          Queue.add msg sv.limbo)
        (Endpoint.reset w.wep);
      w.active <- false;
      w.starting <- false;
      w.empty_cycles <- 0)
    sv.workers;
  sv.active_count <- 0;
  let doomed = ref [] in
  Hashtbl.iter
    (fun id entry ->
      match entry with
      | App { svc_id; reply_src; reply_dst; _ }
        when Int.equal svc_id sid && not (Hashtbl.mem limbo_ids id) ->
          doomed := (id, Some (reply_src, reply_dst)) :: !doomed
      | Dispatch_ack d when Int.equal d.svc_id sid ->
          doomed := (id, None) :: !doomed
      | App _ | Dispatch_ack _ -> ())
    t.inflight;
  List.iter
    (fun (id, entry) ->
      Hashtbl.remove t.inflight id;
      match entry with
      | None -> ()  (* cold activation of a now-dead worker *)
      | Some ((reply_src : Net.Frame.endpoint), (reply_dst : Net.Frame.endpoint))
        -> (
          Obs.Metrics.incr t.m_stale;
          Nic_sched.on_complete t.sched ~service:sid;
          match nested_cont_of id with
          | Some cont
            when Net.Ip_addr.equal reply_dst.Net.Frame.ip
                   (self_address t).Net.Frame.ip ->
              (* Hairpinned nested call into the dead service: unblock
                 the waiting caller rather than NACK our own wire. *)
              if
                not (Rpc.Continuation.fire t.nested_conts cont Rpc.Value.Unit)
              then Sim.Counter.incr (ctr t "nested_orphan_reply")
          | Some _ | None ->
              nack t ~rpc_id:id ~service_id:sid ~src:reply_src ~dst:reply_dst
                ~code:Rpc.Wire_format.err_dead))
    !doomed

(* Redeliver the crash survivors once the NIC learns the process is
   back. Their in-flight entries were retained, so client retransmits
   that raced the restart hit the duplicate-id suppression instead of
   double-executing. *)
let drain_limbo t sv =
  let sid = sv.sspec.service.Rpc.Interface.service_id in
  while not (Queue.is_empty sv.limbo) do
    let msg = Queue.pop sv.limbo in
    let w, _path = choose_worker sv in
    sanitize_dispatch t sv;
    if Endpoint.deliver w.wep msg then Obs.Metrics.incr t.m_requeues
    else begin
      Obs.Metrics.incr t.m_crash_nacks;
      match Hashtbl.find_opt t.inflight msg.Message.rpc_id with
      | Some (App a) ->
          Hashtbl.remove t.inflight msg.Message.rpc_id;
          Nic_sched.on_complete t.sched ~service:sid;
          nack t ~rpc_id:msg.Message.rpc_id ~service_id:sid ~src:a.reply_src
            ~dst:a.reply_dst ~code:Rpc.Wire_format.err_dead
      | Some (Dispatch_ack _) | None -> ()
    end
  done

let kill_service t ~service_id =
  let sv = service_rt t service_id in
  if sv.sproc.Osmodel.Proc.alive then begin
    Obs.Metrics.incr t.m_kills;
    Osmodel.Kernel.kill t.kern sv.sproc;
    (* The NIC's mirror learns after the push lag and the teardown
       sweep runs when that push lands. With no mirror (Static) there
       is no lag to model: the kill sweeps the NIC side at once. *)
    match t.smirror with None -> sweep_dead_service t sv | Some _ -> ()
  end

let restart_service t ~service_id =
  let sv = service_rt t service_id in
  if not sv.sproc.Osmodel.Proc.alive then begin
    Obs.Metrics.incr t.m_respawns;
    Osmodel.Kernel.respawn t.kern sv.sproc;
    (* Fresh threads over the surviving endpoints (which the sweep left
       in their post-reset state: cur line 0, no credits consumed). *)
    Array.iter
      (fun w ->
        Hashtbl.remove t.parked_eps w.wthread.Osmodel.Proc.tid;
        let name = w.wthread.Osmodel.Proc.tname in
        let th =
          Osmodel.Kernel.spawn t.kern sv.sproc ~name ?affinity:w.affinity
            (fun () -> worker_loop t sv w ())
        in
        w.wthread <- th;
        w.cpu_idx <- 0;
        w.empty_cycles <- 0;
        w.active <- false;
        w.starting <- false;
        Hashtbl.replace t.parked_eps th.Osmodel.Proc.tid w.wep)
      sv.workers;
    sv.active_count <- 0;
    for i = 0 to sv.sspec.min_workers - 1 do
      sv.workers.(i).active <- true;
      sv.active_count <- sv.active_count + 1;
      Osmodel.Kernel.wake t.kern sv.workers.(i).wthread
    done;
    (* Limbo redelivery waits for the respawn push; with no mirror it
       follows the restart directly. *)
    match t.smirror with None -> drain_limbo t sv | Some _ -> ()
  end

let on_handled t f = t.handled_hook <- Some f

(* ---------- Construction --------------------------------------------- *)

(* Process-wide so every service across every simulated host gets a
   distinct fake code page. Hosts are built in a fixed order, so the
   assignment is deterministic. *)
let next_code_ptr = ref 0x4000_0000

let fresh_code_ptrs n =
  Array.init n (fun i ->
      let base = !next_code_ptr in
      next_code_ptr := base + 0x1000;
      Int64.add (Int64.of_int base) (Int64.of_int (i * 64)))

let create engine ~cfg ~ncores ?kernel_costs ?(binding = Os_integrated)
    ?(mirror_mode = Sched_mirror.Push) ?(dispatchers = 2)
    ?(fault = Fault.Plan.none) ?metrics ?tracer ?sanitize ~services ~egress
    () =
  if List.is_empty services then invalid_arg "Stack.create: no services";
  (match binding with
  | Os_integrated ->
      if dispatchers < 1 then invalid_arg "Stack.create: need a dispatcher"
  | Static ->
      if
        List.exists
          (fun s -> s.min_workers < 1 || s.max_workers > 1)
          services
      then
        invalid_arg
          "Stack.create: a Static binding pins exactly one worker per service");
  let sanitize =
    match sanitize with
    | Some _ -> sanitize
    | None ->
        if cfg.Config.sanitize then Some (Sanitize.create engine) else None
  in
  let kern =
    match kernel_costs with
    | Some costs -> Osmodel.Kernel.create engine ~ncores ~costs ()
    | None -> Osmodel.Kernel.create engine ~ncores ()
  in
  let stage_delay =
    (* The coherence choke point: with probability [fill_delay] a fill
       stays in flight for [fill_delay_ns] — longer than the TRYAGAIN
       timeout means the worker recovers through a real dummy fill
       while the data is still coming. *)
    if fault.Fault.Plan.fill_delay > 0. then begin
      let frng = Fault.Plan.derived_rng fault ~salt:21 in
      Some
        (fun () ->
          if Sim.Rng.float frng < fault.Fault.Plan.fill_delay then
            fault.Fault.Plan.fill_delay_ns
          else 0)
    end
    else None
  in
  let ha =
    Coherence.Home_agent.create engine cfg.Config.profile ?stage_delay
      ~timeout:cfg.Config.tryagain_timeout ()
  in
  let smirror =
    match binding with
    | Os_integrated ->
        Some (Sched_mirror.create ~mode:mirror_mode cfg.Config.profile kern)
    | Static -> None
  in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Obs.Tracer.create ()
  in
  Obs.Metrics.derive metrics "ha_delayed_fills" (fun () ->
      Coherence.Home_agent.delayed_stages ha);
  Obs.Metrics.derive metrics "ha_tryagains" (fun () ->
      Coherence.Home_agent.tryagains ha);
  let t =
    {
      engine;
      cfg;
      binding;
      kern;
      ha;
      smirror;
      dmx = Demux.create ();
      sched = Nic_sched.create ~shed:cfg.Config.shed ();
      egress;
      counters = Sim.Counter.group (name_of_binding binding);
      inflight = Hashtbl.create 4096;
      services = Hashtbl.create 32;
      dispatchers = [||];
      parked_eps = Hashtbl.create 64;
      telemetry = Telemetry.create ();
      metrics;
      tracer;
      trk = Obs.Tracer.track tracer (name_of_binding binding);
      trk_detail = Obs.Tracer.track tracer "nic-pipeline";
      remotes = Hashtbl.create 16;
      address = None;
      nested_conts = Rpc.Continuation.create ();
      next_dispatch_id = Int64.shift_left 1L 62;
      mac = None;
      handled_hook = None;
      m_kills = Obs.Metrics.counter metrics "kills";
      m_respawns = Obs.Metrics.counter metrics "respawns";
      m_stale = Obs.Metrics.counter metrics "stale_dispatch_caught";
      m_crash_nacks = Obs.Metrics.counter metrics "crash_nacks";
      m_requeues = Obs.Metrics.counter metrics "requeues";
      m_sheds = Obs.Metrics.counter metrics "sheds";
      m_drop_full = Obs.Metrics.counter metrics "drop_full";
      m_drop_shed = Obs.Metrics.counter metrics "drop_shed";
      sanitize;
      mwatch = None;
    }
  in
  (match sanitize with
  | None -> ()
  | Some z -> Sanitize.Coherence_watch.attach z ha);
  (match (sanitize, smirror) with
  | None, _ | Some _, None -> ()
  | Some z, Some smirror ->
      (* Render both sides of the scheduling state — per-core occupancy
         and per-service liveness — for the end-of-run convergence
         check. Compared only once no push is in flight. *)
      let render occupant alive =
        let b = Buffer.create 64 in
        for core = 0 to ncores - 1 do
          (match occupant ~core with
          | Some (pid, tid) -> Buffer.add_string b (Printf.sprintf "%d.%d" pid tid)
          | None -> Buffer.add_char b '-');
          Buffer.add_char b ' '
        done;
        Hashtbl.fold (fun sid sv acc -> (sid, sv) :: acc) t.services []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.iter (fun (sid, sv) ->
               Buffer.add_string b
                 (Printf.sprintf "svc%d=%s "
                    sid
                    (if alive sv then "alive" else "dead")));
        Buffer.contents b
      in
      t.mwatch <-
        Some
          (Sanitize.Mirror_watch.attach z
             ~quiesced:(fun () ->
               Int.equal (Sched_mirror.in_flight_pushes smirror) 0)
             ~name:"sched-mirror"
             ~truth:(fun () ->
               render
                 (fun ~core -> Sched_mirror.kernel_truth smirror ~core)
                 (fun sv -> sv.sproc.Osmodel.Proc.alive))
             ~view:(fun () ->
               render
                 (fun ~core -> Sched_mirror.core_occupant smirror ~core)
                 (fun sv ->
                   Sched_mirror.pid_alive smirror
                     ~pid:sv.sproc.Osmodel.Proc.pid))
             ()));
  let next_ep_id = ref 0 in
  let new_endpoint ?owner () =
    let id = !next_ep_id in
    incr next_ep_id;
    let ep =
      Endpoint.create ha cfg ~id
        ~on_response:(fun r -> on_endpoint_response t r)
        ()
    in
    (match (binding, owner) with
    | Os_integrated, Some get_thread ->
        Endpoint.set_on_parked ep (fun () ->
            if park_would_starve t (get_thread ()) then begin
              Sim.Counter.incr (ctr t "park_self_kick");
              Endpoint.kick ep
            end)
    | Static, _ | Os_integrated, None -> ());
    ep
  in
  (* Dispatcher kernel threads: the OS channel, absent when Static. *)
  (match binding with
  | Static -> ()
  | Os_integrated ->
      let kproc = Osmodel.Kernel.new_process kern ~name:"kernel" in
      t.dispatchers <-
        Array.init dispatchers (fun i ->
            let d_ref = ref None in
            let dep =
              new_endpoint
                ~owner:(fun () ->
                  match !d_ref with
                  | Some d -> d.dthread
                  | None -> invalid_arg "dispatcher not ready")
                ()
            in
            let body () =
              match !d_ref with
              | Some d -> dispatcher_loop t d 0 ()
              | None -> assert false
            in
            let dthread =
              Osmodel.Kernel.spawn kern kproc
                ~name:(Printf.sprintf "lauberhorn-disp%d" i) ~kernel_thread:true
                body
            in
            let d = { dthread; dep } in
            d_ref := Some d;
            Hashtbl.replace t.parked_eps dthread.Osmodel.Proc.tid dep;
            d));
  (* Services and their workers; Static pins each service's one worker
     to a core, round-robin. *)
  List.iteri
    (fun i sspec ->
      let svc = sspec.service in
      let affinity =
        match binding with
        | Static -> Some (i mod ncores)
        | Os_integrated -> None
      in
      let sproc =
        Osmodel.Kernel.new_process kern ~name:svc.Rpc.Interface.service_name
      in
      let sv =
        { sspec; sproc; workers = [||]; active_count = 0;
          limbo = Queue.create () }
      in
      let workers =
        Array.init sspec.max_workers (fun widx ->
            let w_ref = ref None in
            let wep =
              new_endpoint
                ~owner:(fun () ->
                  match !w_ref with
                  | Some w -> w.wthread
                  | None -> invalid_arg "worker not ready")
                ()
            in
            let body () =
              match !w_ref with
              | Some w -> worker_loop t sv w ()
              | None -> assert false
            in
            let wthread =
              Osmodel.Kernel.spawn kern sproc
                ~name:
                  (Printf.sprintf "%s-w%d" svc.Rpc.Interface.service_name
                     widx)
                ?affinity body
            in
            let w =
              {
                widx;
                wthread;
                wep;
                wtx = None;
                active = false;
                starting = false;
                cpu_idx = 0;
                empty_cycles = 0;
                affinity;
              }
            in
            w.wtx <-
              Some
                (Tx_endpoint.create ha cfg ~id:(Endpoint.id wep)
                   ~on_line:(fun image -> on_tx_line t image)
                   ());
            w_ref := Some w;
            Hashtbl.replace t.parked_eps wthread.Osmodel.Proc.tid wep;
            w)
      in
      sv.workers <- workers;
      let code_ptrs =
        fresh_code_ptrs
          (List.fold_left
             (fun acc m -> max acc (m.Rpc.Interface.method_id + 1))
             1 svc.Rpc.Interface.methods)
      in
      let data_ptr =
        Int64.of_int (0x7000_0000 + (sproc.Osmodel.Proc.pid * 0x10000))
      in
      Hashtbl.replace t.services svc.Rpc.Interface.service_id sv;
      Demux.bind t.dmx ~port:sspec.port
        {
          Demux.service = svc;
          pid = sproc.Osmodel.Proc.pid;
          endpoint = workers.(0).wep;
          code_ptrs;
          data_ptr;
        };
      (* Hot services start with min_workers already parked. *)
      for i = 0 to sspec.min_workers - 1 do
        workers.(i).active <- true;
        sv.active_count <- sv.active_count + 1;
        Osmodel.Kernel.wake kern workers.(i).wthread
      done)
    services;
  (* Start dispatchers. *)
  Array.iter (fun d -> Osmodel.Kernel.wake kern d.dthread) t.dispatchers;
  (match smirror with
  | None -> ()  (* Static: no mirror hooks, no preemption kick *)
  | Some smirror ->
      (* Crash lifecycle, as the NIC perceives it: the teardown sweep and
         the limbo redelivery both run when the corresponding push lands,
         not when the kernel-side event happens. *)
      Sched_mirror.on_pid_dead smirror (fun pid ->
          Hashtbl.iter
            (fun _sid sv ->
              if Int.equal sv.sproc.Osmodel.Proc.pid pid then
                sweep_dead_service t sv)
            t.services);
      Sched_mirror.on_pid_respawn smirror (fun pid ->
          Hashtbl.iter
            (fun _sid sv ->
              if Int.equal sv.sproc.Osmodel.Proc.pid pid then drain_limbo t sv)
            t.services);
      (* Preemption: a thread queued behind a parked occupant gets the core
         via a TRYAGAIN kick (paper §5.1). *)
      Osmodel.Kernel.on_wake_enqueue kern (fun ~core _th ->
          match Osmodel.Kernel.current kern ~core with
          | None -> ()
          | Some occupant -> (
              match
                Hashtbl.find_opt t.parked_eps occupant.Osmodel.Proc.tid
              with
              | Some ep when Endpoint.parked ep ->
                  Sim.Counter.incr (ctr t "preempt_kick");
                  Endpoint.kick ep
              | Some _ | None -> ())));
  (* The MAC front end. *)
  let mac =
    Nic.Mac.create engine ~sink:(fun f -> nic_rx t f) ()
  in
  t.mac <- Some mac;
  t

let ingress t frame =
  (* Tracing on: open the RPC's root span at the instant the request
     frame hits the NIC — the same sim time the harness stamps
     note_sent, so the root span IS the measured end-system latency.
     The header peek is only paid when tracing. *)
  if Obs.Tracer.is_enabled t.tracer then begin
    match Rpc.Wire_format.peek frame.Net.Frame.payload with
    | Ok ({ Rpc.Wire_format.kind = Rpc.Wire_format.Request; _ } as h) ->
        Obs.Tracer.rpc_begin t.tracer ~rpc:h.Rpc.Wire_format.rpc_id
          ~track:t.trk (Sim.Engine.now t.engine);
        (match h.Rpc.Wire_format.ctx with
        | Some c ->
            Obs.Tracer.set_context t.tracer ~rpc:h.Rpc.Wire_format.rpc_id c
        | None -> ())
    | Ok _ | Error _ -> ()
  end;
  match t.mac with
  | Some mac -> Nic.Mac.rx mac frame
  | None -> invalid_arg "Stack.ingress: MAC not initialised"

let active_workers t ~service_id = (service_rt t service_id).active_count

let telemetry t = t.telemetry
let metrics t = t.metrics
let tracer t = t.tracer
let set_address t address = t.address <- Some address

let add_remote_service t ~service_id ~server ~response_schema =
  if Option.is_some (Demux.port_of_service t.dmx ~service_id) then
    invalid_arg "Stack.add_remote_service: service is local";
  Hashtbl.replace t.remotes service_id { server; response_schema }
let dispatcher_count t = Array.length t.dispatchers

let retire_dispatcher t ~idx =
  if idx < 0 || idx >= Array.length t.dispatchers then
    invalid_arg "Stack.retire_dispatcher: no such dispatcher";
  let d = t.dispatchers.(idx) in
  let ok = Endpoint.retire d.dep in
  if ok then Sim.Counter.incr (ctr t "dispatcher_retire_sent");
  ok

let resume_dispatcher t ~idx =
  if idx < 0 || idx >= Array.length t.dispatchers then
    invalid_arg "Stack.resume_dispatcher: no such dispatcher";
  let d = t.dispatchers.(idx) in
  match d.dthread.Osmodel.Proc.state with
  | Osmodel.Proc.Blocked -> Osmodel.Kernel.wake t.kern d.dthread
  | Osmodel.Proc.Ready | Osmodel.Proc.Running _ | Osmodel.Proc.Exited -> ()

let endpoint_of t ~service_id ~worker =
  let sv = service_rt t service_id in
  if worker < 0 || worker >= Array.length sv.workers then
    invalid_arg "Stack.endpoint_of: no such worker";
  sv.workers.(worker).wep

let driver t =
  Harness.Driver.make ~name:(name_of_binding t.binding)
    ~ingress:(fun f -> ingress t f)
    ~kernel:t.kern ~counters:t.counters ~metrics:t.metrics
    ~describe:(fun () ->
      let prof = (prof t).Coherence.Interconnect.name
      and ncores = Osmodel.Kernel.ncores t.kern in
      match t.binding with
      | Os_integrated ->
          Printf.sprintf "lauberhorn(%s, %d cores, timeout=%s)" prof ncores
            (Format.asprintf "%a" Sim.Units.pp_duration
               t.cfg.Config.tryagain_timeout)
      | Static ->
          Printf.sprintf "ccnic-static(%s, %d cores, %d services)" prof
            ncores (Hashtbl.length t.services))
    ()
