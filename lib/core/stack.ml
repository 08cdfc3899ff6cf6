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

(* How a request reached its worker: straight into a parked load,
   queued behind a busy worker, or through the kernel (Figure 5). *)
type path = Fast | Queued | Cold

type service_stats = {
  latency : Sim.Histogram.t;
  mutable fast : int;
  mutable queued : int;
  mutable cold : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

(* A request between dispatch and collection, in the in-flight table
   by its wire rpc id. Its record is a slot of a per-stack
   [Sim.Slot_pool], filled at dispatch and released where the request
   leaves the table: at collection, at a hairpinned nested reply, in
   the kill sweep, at a limbo NACK and when its endpoint is full. [rpc]
   is the id the slot holds, [free_rpc] while it is in the pool. *)
type app = {
  mutable rpc : int;
  mutable mdef : Rpc.Interface.method_def;
  mutable args : Rpc.Value.t;
  mutable sv : service_rt;  (* owning service *)
  mutable request : Net.Frame.t;  (* the reply swaps its headers *)
  mutable reply : bytes;
      (* the reply's wire payload: room for its RPC header, then the
         handler's encoded result from [body_off] on *)
  mutable body_off : int;
  mutable arrived : Sim.Units.time;
  mutable arg_bytes : int;
  mutable path : path;
}

and worker = {
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
  (* The worker loop's continuations, built once per worker (the fill
     and finish callbacks once per worker thread), and the state they
     share: *)
  mutable fill_th : Osmodel.Proc.thread;  (* the thread [on_fill] judges *)
  mutable on_fill : Coherence.Home_agent.fill -> unit;
  mutable req_id : int;
      (* the rpc id of the request in hand when it was taken, or
         [free_rpc] ... *)
  mutable hand : app;  (* ... and its slot, which may have moved on *)
  mutable run_handler : unit -> unit;  (* after the handler's CPU time *)
  mutable finish : Rpc.Value.t -> unit;  (* the handler's result *)
  mutable loop : unit -> unit;  (* re-park *)
}

(* The NIC's one record per service, registered by the kernel and
   found by destination port: what dispatch needs (the schemas, the
   per-method code pointers and the data pointer), its workers, its
   admission gate and its section 6 statistics. *)
and service_rt = {
  sspec : service_spec;
  sproc : Osmodel.Proc.process;
  code_ptrs : int64 array;  (* indexed by method id *)
  data_ptr : int64;
  mutable workers : worker array;
  mutable active_count : int;
  limbo : Message.request Queue.t;
      (* NIC-SRAM survivors of a crash, redelivered on restart *)
  gate : Nic_sched.gate;
  stats : service_stats;  (* recorded at response collection *)
}

(* A worker activation awaiting its dispatcher's ack, in its own table
   by a negative id, which no wire id is. *)
type ack = { svc_id : int; widx : int }

let nop () = ()
let no_ack = { svc_id = -1; widx = -1 }
let free_rpc = -1
let no_fill (_ : Coherence.Home_agent.fill) = ()
let no_result (_ : Rpc.Value.t) = ()

let service_id_of sv = sv.sspec.service.Rpc.Interface.service_id

type dispatcher = { dthread : Osmodel.Proc.thread; dep : Endpoint.t }

(* The NIC pipeline and the transmit path hold each frame in a slot of a
   per-stack [Sim.Slot_pool]: a mutable record whose event closure is
   built once, when the slot is made. The pipeline's delays vary per
   frame, so slots fire in any order. A slot re-reads the rpc id and body offset
   from its frame's header (a mutable [int64] field would box on every
   store), and a firing slot clears its frame and returns to the pool
   before it dispatches or transmits. *)
type rx_slot = {
  mutable rx_frame : Net.Frame.t;
  mutable rx_sv : service_rt;
  mutable rx_mdef : Rpc.Interface.method_def;
  mutable rx_args : Rpc.Value.t;
  rx_fire : unit -> unit;
}

type tx_slot = {
  mutable tx_frame : Net.Frame.t;
  mutable tx_stage : bool;  (* close the "tx" stage: a reply, not a NACK *)
  tx_fire : unit -> unit;
}

let no_frame =
  Net.Frame.make ~src:Harness.Traffic.server_address
    ~dst:Harness.Traffic.server_address Bytes.empty

(* The slot no request holds: what a free cell of the in-flight table
   and a worker that never took a request hold. It is never in a table
   nor taken from a pool, so nothing writes to it or to its service,
   which has no methods, no port and no process the kernel knows. It
   is shared rather than built per stack because [Array.make] of a
   value still in the minor heap forces a minor collection. *)
let idle =
  let service = Rpc.Interface.service ~id:(-1) ~name:"idle" [] in
  let sv =
    {
      sspec = { service; port = -1; min_workers = 0; max_workers = 0 };
      sproc = Osmodel.Proc.make_process ~pid:(-1) ~name:"idle";
      code_ptrs = [||];
      data_ptr = 0L;
      workers = [||];
      active_count = 0;
      limbo = Queue.create ();
      gate = Nic_sched.gate ();
      stats =
        {
          latency = Sim.Histogram.create ();
          fast = 0;
          queued = 0;
          cold = 0;
          bytes_in = 0;
          bytes_out = 0;
        };
    }
  in
  {
    rpc = free_rpc;
    mdef =
      Rpc.Interface.method_def ~id:0 ~name:"idle" ~request:Rpc.Schema.Blob
        ~response:Rpc.Schema.Blob Fun.id;
    args = Rpc.Value.Unit;
    sv;
    request = no_frame;
    reply = Bytes.empty;
    body_off = 0;
    arrived = 0;
    arg_bytes = 0;
    path = Cold;
  }
[@@global_ok "a sentinel no request holds: nothing writes to it"]

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
  by_port : (int, service_rt) Hashtbl.t;  (* the NIC's dispatch table *)
  egress : Net.Frame.t -> unit;
  counters : Sim.Counter.group;
  inflight : app Sim.Int_table.t;  (* by wire rpc id *)
  app_slots : app Sim.Slot_pool.t;
  mutable apps_made : int;  (* slots built: in the table or the pool *)
  acks : ack Sim.Int_table.t;  (* by negative worker-activation id *)
  services : (int, service_rt) Hashtbl.t;  (* by service id *)
  mutable dispatchers : dispatcher array;
  parked_eps : (int, Endpoint.t) Hashtbl.t;  (* tid -> endpoint *)
  metrics : Obs.Metrics.t;
  tracer : Obs.Tracer.t;
  trk : int;  (* span track for the rpc stage chain *)
  trk_detail : int;  (* span track for NIC pipeline sub-intervals *)
  remotes : (int, remote) Hashtbl.t;  (* service_id -> where it lives *)
  mutable address : Net.Frame.endpoint option;  (* our own identity *)
  nested_conts : Rpc.Value.t Rpc.Continuation.t;
      (* reply continuations for nested calls (paper section 6) *)
  rx_slots : rx_slot Sim.Slot_pool.t;
      (* the NIC pipeline's frames in flight *)
  tx_slots : tx_slot Sim.Slot_pool.t;
      (* frames between collection and the wire *)
  mutable next_dispatch_id : int;  (* negative: never a wire id *)
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
  mutable mwatch : Sanitize.Mirror_watch.watch option;
      (* installed after [t] exists (its closures render [t]'s state) *)
}

let kernel t = t.kern
let home_agent t = t.ha
let mirror t = t.smirror
let counters t = t.counters

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

let mirror_lookup t =
  match t.smirror with Some m -> Sched_mirror.lookup_cost m | None -> 0

(* The NIC's AES-GCM pass over a frame, when encryption is on. *)
let crypto_cost t frame =
  if t.cfg.Config.encrypt then
    Crypto.cost Crypto.aes_gcm_nic ~bytes:(Net.Frame.wire_size frame)
  else 0

(* Detail spans decomposing the NIC pipeline stage, emitted at the
   moment the pipeline completes (they reach back from now). Only a
   traced run builds the breakdown. *)
let pipeline_details t ~rpc frame ~body_off args =
  if Obs.Tracer.is_enabled t.tracer then begin
    let b =
      Pipeline.rx t.cfg ~mirror_lookup:(mirror_lookup t)
        ~fields:(Rpc.Value.field_count args)
        ~arg_bytes:(Bytes.length frame.Net.Frame.payload - body_off)
    in
    let decrypt = crypto_cost t frame in
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
   be routed to the waiting worker instead of the wire. Worker
   activations use the negative ids, which no wire id is. *)
let nested_tag = 1 lsl 61

let nested_rpc_id cont = nested_tag lor cont
let is_nested rpc_id = rpc_id >= 0 && rpc_id land nested_tag <> 0
let nested_cont rpc_id = rpc_id land 0xffff_ffff

(* A local service by id, off the request path ([nic_rx] finds a
   request's service once, by port). *)
let service_rt t service_id =
  match Hashtbl.find t.services service_id with
  | sv -> sv
  | exception Not_found ->
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

(* The response body is [reply] from [off] on. *)
let respond_line t w ~rpc_id ~status reply ~off =
  let line_bytes = line_bytes t in
  let total_len = Bytes.length reply - off in
  let cap = Message.response_inline_capacity ~line_bytes in
  let len = Int.min cap total_len in
  let rest = total_len - len in
  let aux_count =
    if rest <= 0 then 0 else (rest + line_bytes - 1) / line_bytes
  in
  let line = Endpoint.response_image w.wep w.cpu_idx in
  Message.write_response_into line ~rpc_id ~status ~total_len ~aux_count reply
    ~off ~len;
  Coherence.Home_agent.cpu_store t.ha (Endpoint.ctrl_line w.wep w.cpu_idx) line

let rec worker_loop t sv w () = park_worker t sv w

and park_worker t sv w =
  (* Bind the thread at park time: if the process is killed while this
     load is parked and later restarted, the fill completion must be
     judged against the thread that parked, not the respawned one. So
     the fill callback captures its thread, and a restart's new thread
     gets a new one. *)
  let th = w.wthread in
  if w.fill_th != th then begin
    w.fill_th <- th;
    w.on_fill <- worker_fill t sv w th;
    w.finish <- worker_finish t sv w th
  end;
  Osmodel.Kernel.stall_begin t.kern th;
  Coherence.Home_agent.cpu_load t.ha
    (Endpoint.ctrl_line w.wep w.cpu_idx)
    w.on_fill

and worker_fill t sv w th fill =
  if Osmodel.Proc.is_exited th then
    (* Killed while parked; the kill already closed the stall and the
       teardown sweep owns whatever this fill carried. *)
    ()
  else begin
    Osmodel.Kernel.stall_end t.kern th;
    match fill with
    | Coherence.Home_agent.Tryagain -> worker_tryagain t sv w
    | Coherence.Home_agent.Data line -> (
        w.empty_cycles <- 0;
        match Message.kind line with
        | Message.Request_line -> worker_handle t sv w line
        | Message.Kernel_dispatch_line | Message.Tryagain_line
        | Message.Retire_line | Message.Bad_line ->
            Sim.Counter.incr (ctr t "worker_bad_line");
            worker_loop t sv w ())
  end

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
    Osmodel.Kernel.yield t.kern w.wthread w.loop

(* The worker reads the three fields it uses straight from the line. *)
and worker_handle t sv w line =
  let rpc_id = Message.request_rpc_id line in
  match Sim.Int_table.find t.inflight rpc_id with
  | exception Not_found ->
      Sim.Counter.incr (ctr t "worker_orphan_request");
      worker_loop t sv w ()
  | app ->
      span_stage t ~rpc:rpc_id "queue";
      let dma_read =
        if Message.request_via_dma line then
          mem_read_cost (Message.request_total_args line)
        else 0
      in
      let work = app.mdef.Rpc.Interface.handler_time + dma_read in
      w.req_id <- rpc_id;
      w.hand <- app;
      Osmodel.Kernel.run_for t.kern w.wthread ~kind:Osmodel.Cpu_account.User
        work w.run_handler

(* Whether thread [th] may act on the request in [w]'s hand: [th]
   lives, the worker holds a request, and its slot still holds the rpc
   id it held when taken. A slot released since (the request was swept
   or NACKed) holds [free_rpc], and one refilled holds another
   request's id: the id is the slot's epoch, as a client's is its
   call's. A stale hand is counted and left alone. *)
and hand_current w th =
  (not (Osmodel.Proc.is_exited th))
  && w.req_id >= 0
  && Int.equal w.hand.rpc w.req_id

(* The handler's CPU time has run, on the worker's live thread. *)
and worker_run_handler t sv w () =
  if not (hand_current w w.wthread) then begin
    Sim.Counter.incr (ctr t "worker_stale_hand");
    w.req_id <- free_rpc;
    worker_loop t sv w ()
  end
  else
    let app = w.hand in
    match app.mdef.Rpc.Interface.nested with
    | None -> w.finish (app.mdef.Rpc.Interface.execute app.args)
    | Some h ->
        let call ~service_id ~method_id v k =
          nested_call t w ~service_id ~method_id v k
        in
        h ~call app.args ~done_:w.finish

(* The handler's result, for the request that thread [th] took. A
   nested handler may finish after [th] died with its process: the kill
   sweep answered that request, and the worker may hold a request of
   its next thread by now, so nothing of [w] is touched. *)
and worker_finish t sv w th result =
  if not (hand_current w th) then begin
    Sim.Counter.incr (ctr t "worker_stale_hand");
    if not (Osmodel.Proc.is_exited th) then begin
      w.req_id <- free_rpc;
      worker_loop t sv w ()
    end
  end
  else begin
    let app = w.hand in
    let rpc_id = w.req_id in
    w.req_id <- free_rpc;
    span_stage t ~rpc:rpc_id "handler";
    (* The result is encoded once, behind room for the reply's RPC
       header, which collection writes in place: the buffer is the
       reply's payload. *)
    let off =
      Rpc.Wire_format.header_room (Obs.Tracer.context_of t.tracer ~rpc:rpc_id)
    in
    let reply = Rpc.Codec.encode_at off result in
    app.reply <- reply;
    app.body_off <- off;
    respond_line t w ~rpc_id ~status:0 reply ~off;
    w.cpu_idx <- 1 - w.cpu_idx;
    Sim.Counter.incr (ctr t "rpcs_handled");
    (match t.handled_hook with Some f -> f () | None -> ());
    worker_loop t sv w ()
  end

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
      match Hashtbl.find t.services r.Message.service_id with
      | exception Not_found -> Sim.Counter.incr (ctr t "tx_line_no_service")
      | sv ->
          Sim.Counter.incr (ctr t "tx_line_sends");
          let id = r.Message.rpc_id in
          let cont = if is_nested id then nested_cont id else 0 in
          tx_emit t ~cont ~service_id:r.Message.service_id
            ~method_id:r.Message.method_id
            ~dst:{ (self_address t) with Net.Frame.port = sv.sspec.port }
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
    match Hashtbl.find_opt t.services service_id with
    | Some sv -> Some { (self_address t) with Net.Frame.port = sv.sspec.port }
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
                  (match Sim.Int_table.find t.acks r.Message.rpc_id with
                  | { svc_id; widx } ->
                      let sv = service_rt t svc_id in
                      activate_worker t sv sv.workers.(widx)
                  | exception Not_found ->
                      Sim.Counter.incr (ctr t "dispatcher_orphan"));
                  (* Follow the line protocol: ack into the same line,
                     then monitor the other one. *)
                  let ack = Endpoint.response_image d.dep idx in
                  Message.write_response_into ack ~rpc_id:r.Message.rpc_id
                    ~status:0 ~total_len:0 ~aux_count:0 Bytes.empty ~off:0
                    ~len:0;
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
        t.next_dispatch_id <- id - 1;
        Sim.Int_table.replace t.acks id
          { svc_id = service_id_of sv; widx = w.widx };
        let msg =
          {
            Message.rpc_id = id;
            service_id = service_id_of sv;
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
          Sim.Int_table.remove t.acks id;
          w.starting <- false;
          Sim.Counter.incr (ctr t "dispatch_dropped")
        end
  end

(* ---------- NIC receive pipeline and dispatch ------------------------ *)

(* Prefer a parked active worker (zero-latency handoff), then the
   least-loaded active worker (the first on ties), then an inactive one
   (needs a slow-path activation): the index of the first of these. *)
let rec pick_worker ws i best best_load =
  if i >= Array.length ws then if best >= 0 then best else 0
  else begin
    let w = ws.(i) in
    if w.active && Endpoint.parked w.wep then i
    else begin
      let load = Endpoint.in_flight w.wep + Endpoint.queue_depth w.wep in
      if w.active && load < best_load then pick_worker ws (i + 1) i load
      else pick_worker ws (i + 1) best best_load
    end
  end

let choose_worker sv = sv.workers.(pick_worker sv.workers 0 (-1) max_int)

(* How a request reaches the worker [choose_worker] picked. *)
let path_to w =
  if not w.active then Cold
  else if Endpoint.parked w.wep then Fast
  else Queued

let scale_decision t sv =
  let queue_depth =
    Array.fold_left
      (fun acc w -> acc + Endpoint.queue_depth w.wep)
      0 sv.workers
  in
  Nic_sched.decide sv.gate ~shed:t.cfg.Config.shed ~queue_depth

let tx_mac_delay = Sim.Units.ns 200

(* The frame leaves for the wire. The rpc id is read back from its
   header only for the tracer. *)
let[@hot_path] fire_tx t s =
  let frame = s.tx_frame in
  let stage = s.tx_stage in
  s.tx_frame <- no_frame;
  Sim.Slot_pool.release t.tx_slots s;
  Sim.Counter.incr (ctr t "tx_frames");
  if Obs.Tracer.is_enabled t.tracer then begin
    let rpc = Rpc.Wire_format.rpc_id frame.Net.Frame.payload in
    if stage then span_stage t ~rpc "tx";
    Obs.Tracer.rpc_end t.tracer ~rpc (Sim.Engine.now t.engine)
  end;
  t.egress frame

let new_tx_slot t frame ~stage =
  let rec s =
    { tx_frame = frame; tx_stage = stage; tx_fire = (fun () -> fire_tx t s) }
  in
  s

(* Put [frame] on the wire [after] from now, through a transmit slot. *)
let[@hot_path] transmit t ~after ~stage frame =
  let p = t.tx_slots in
  let s =
    if Sim.Slot_pool.is_empty p then new_tx_slot t frame ~stage
    else begin
      let s = Sim.Slot_pool.take p in
      s.tx_frame <- frame;
      s.tx_stage <- stage;
      s
    end
  in
  ignore (Sim.Engine.schedule_after t.engine ~after s.tx_fire)

(* An explicit transport-level reject on the wire (Error_reply): the
   client sees why its request did not complete instead of inferring a
   silent drop from a timeout. *)
let nack t ~rpc_id ~service_id ~request ~code =
  let frame =
    Net.Frame.reply_to ~src:request.Net.Frame.src ~dst:request.Net.Frame.dst
      (Rpc.Wire_format.encode_body ~kind:(Rpc.Wire_format.Error_reply code)
         ?ctx:(Obs.Tracer.context_of t.tracer ~rpc:rpc_id)
         ~rpc_id ~service_id ~method_id:0 Bytes.empty)
  in
  transmit t ~after:tx_mac_delay ~stage:false frame

let new_app () = { idle with rpc = free_rpc }

(* A slot for a request, from the pool or else made. *)
let[@hot_path] take_app t =
  let p = t.app_slots in
  if Sim.Slot_pool.is_empty p then begin
    t.apps_made <- t.apps_made + 1;
    new_app ()
  end
  else Sim.Slot_pool.take p

(* The request leaves the in-flight table, and its slot goes back to
   the pool holding nothing the pool would keep alive. Whatever the
   caller still needs of the slot it reads first. *)
let[@hot_path] retire_app t app =
  Sim.Int_table.remove t.inflight app.rpc;
  app.rpc <- free_rpc;
  app.args <- Rpc.Value.Unit;
  app.request <- no_frame;
  app.reply <- Bytes.empty;
  Sim.Slot_pool.release t.app_slots app

(* The first inactive worker not already starting, or -1. *)
let rec idle_worker ws i =
  if i >= Array.length ws then -1
  else if (not ws.(i).active) && not ws.(i).starting then i
  else idle_worker ws (i + 1)

(* The request's body is the frame's payload from [body_off] on. *)
let[@hot_path] dispatch_request t sv frame ~rpc_id ~body_off
    (mdef : Rpc.Interface.method_def) args =
  let service_id = service_id_of sv in
  if Sim.Int_table.mem t.inflight rpc_id then
    Sim.Counter.incr (ctr t "duplicate_rpc_id")
  else if not (nic_alive t sv) then begin
    (* The NIC believes the target process is dead (the death push has
       landed, or the Static kill swept it): refuse on the wire rather
       than dispatch to a corpse. *)
    Obs.Metrics.incr t.m_crash_nacks;
    nack t ~rpc_id ~service_id ~request:frame ~code:Rpc.Wire_format.err_dead
  end
  else begin
    let payload = frame.Net.Frame.payload in
    let arg_bytes = Bytes.length payload - body_off in
    let window = Config.endpoint_window t.cfg in
    let via_dma =
      arg_bytes > t.cfg.Config.dma_threshold || arg_bytes > window
    in
    let inline_cap = Config.inline_capacity t.cfg in
    let inline_len = Int.min inline_cap arg_bytes in
    let aux_count =
      if via_dma then 0
      else
        let rest = arg_bytes - inline_len in
        if rest <= 0 then 0 else (rest + line_bytes t - 1) / line_bytes t
    in
    (* With admission control armed the decision is taken once, before
       the arrival is accepted (so a Shed never occupies queue space);
       with it off, the decision is taken after delivery, exactly as
       the pre-admission-control stack did. A Static binding has no
       admission control. *)
    let early =
      match t.binding with
      | Os_integrated -> t.cfg.Config.shed
      | Static -> false
    in
    let early_decision =
      if early then scale_decision t sv else Nic_sched.Steady
    in
    match early_decision with
    | Nic_sched.Shed ->
        Obs.Metrics.incr t.m_sheds;
        Obs.Metrics.incr t.m_drop_shed;
        nack t ~rpc_id ~service_id ~request:frame
          ~code:Rpc.Wire_format.err_shed
    | Nic_sched.Steady | Nic_sched.Add_worker ->
    let w = choose_worker sv in
    let path = path_to w in
    let app = take_app t in
    app.rpc <- rpc_id;
    app.mdef <- mdef;
    app.args <- args;
    app.sv <- sv;
    app.request <- frame;
    app.reply <- Bytes.empty;
    app.body_off <- 0;
    app.arrived <- Sim.Engine.now t.engine;
    app.arg_bytes <- arg_bytes;
    app.path <- path;
    Sim.Int_table.replace t.inflight rpc_id app;
    sanitize_dispatch t sv;
    let method_id = mdef.Rpc.Interface.method_id in
    if
      Endpoint.deliver_request w.wep ~rpc_id ~service_id ~method_id
        ~code_ptr:sv.code_ptrs.(method_id) ~data_ptr:sv.data_ptr
        ~total_args:arg_bytes ~aux_count ~via_dma payload ~off:body_off
        ~len:inline_len
    then begin
      (match path with
      | Fast -> Sim.Counter.incr (ctr t "fast_path")
      | Queued -> Sim.Counter.incr (ctr t "queued_path")
      | Cold ->
          Sim.Counter.incr (ctr t "cold_path");
          request_worker_activation t sv w);
      (* NIC-driven scale-up when queues build. *)
      let decision =
        if early then early_decision else scale_decision t sv
      in
      match decision with
      | Nic_sched.Add_worker ->
          let i = idle_worker sv.workers 0 in
          if i >= 0 && sv.active_count < sv.sspec.max_workers then
            request_worker_activation t sv sv.workers.(i)
      | Nic_sched.Steady | Nic_sched.Shed -> ()
    end
    else begin
      retire_app t app;
      Sim.Counter.incr (ctr t "nic_queue_drop");
      Obs.Metrics.incr t.m_drop_full
    end
  end

(* A pipeline slot fires: the frame's header is read again, the slot
   goes back to its pool, and the request is dispatched. *)
let[@hot_path] fire_rx t s =
  let frame = s.rx_frame in
  let sv = s.rx_sv in
  let mdef = s.rx_mdef in
  let args = s.rx_args in
  s.rx_frame <- no_frame;
  s.rx_args <- Rpc.Value.Unit;
  Sim.Slot_pool.release t.rx_slots s;
  let payload = frame.Net.Frame.payload in
  let rpc_id = Rpc.Wire_format.rpc_id payload in
  let body_off = Rpc.Wire_format.body_offset payload in
  pipeline_details t ~rpc:rpc_id frame ~body_off args;
  span_stage t ~rpc:rpc_id "nic_pipeline";
  dispatch_request t sv frame ~rpc_id ~body_off mdef args

let new_rx_slot t frame sv mdef args =
  let rec s =
    {
      rx_frame = frame;
      rx_sv = sv;
      rx_mdef = mdef;
      rx_args = args;
      rx_fire = (fun () -> fire_rx t s);
    }
  in
  s

(* The NIC pipeline takes [after] for this frame, through a slot. *)
let[@hot_path] arm_rx t ~after frame sv mdef args =
  let p = t.rx_slots in
  let s =
    if Sim.Slot_pool.is_empty p then new_rx_slot t frame sv mdef args
    else begin
      let s = Sim.Slot_pool.take p in
      s.rx_frame <- frame;
      s.rx_sv <- sv;
      s.rx_mdef <- mdef;
      s.rx_args <- args;
      s
    end
  in
  ignore (Sim.Engine.schedule_after t.engine ~after s.rx_fire)

(* The header is read in place and the body decoded in place, from
   [Wire_format.body_offset] to the end of the payload: the request's
   arguments and a nested reply are never copied out of the frame. *)
let nic_rx t frame =
  Sim.Counter.incr (ctr t "rx_frames");
  let payload = frame.Net.Frame.payload in
  match Rpc.Wire_format.check payload with
  | Error _ -> Sim.Counter.incr (ctr t "rx_bad_rpc")
  | Ok () ->
      if Rpc.Wire_format.is_request payload then begin
        if Obs.Tracer.is_enabled t.tracer then
          span_stage t ~rpc:(Rpc.Wire_format.rpc_id payload) "mac";
        match Hashtbl.find t.by_port frame.Net.Frame.dst.Net.Frame.port with
        | exception Not_found -> Sim.Counter.incr (ctr t "rx_no_service")
        | sv -> (
            match
              Rpc.Interface.method_by_id sv.sspec.service
                (Rpc.Wire_format.method_id payload)
            with
            | exception Not_found -> Sim.Counter.incr (ctr t "rx_no_method")
            | mdef -> (
                let body_off = Rpc.Wire_format.body_offset payload in
                let arg_bytes = Bytes.length payload - body_off in
                match
                  Rpc.Codec.decode_sub mdef.Rpc.Interface.request payload
                    ~pos:body_off ~len:arg_bytes
                with
                | Error _ -> Sim.Counter.incr (ctr t "rx_bad_args")
                | Ok args ->
                    let delay =
                      Pipeline.total t.cfg ~mirror_lookup:(mirror_lookup t)
                        ~fields:(Rpc.Value.field_count args) ~arg_bytes
                      + crypto_cost t frame
                    in
                    arm_rx t ~after:delay frame sv mdef args))
      end
      else
        (* A response from a remote machine to one of our nested calls. *)
        let id = Rpc.Wire_format.rpc_id payload in
        if not (is_nested id) then
          Sim.Counter.incr (ctr t "rx_stray_response")
        else begin
          let cont = nested_cont id in
          match
            Hashtbl.find_opt t.remotes (Rpc.Wire_format.service_id payload)
          with
          | Some r -> (
              let pos = Rpc.Wire_format.body_offset payload in
              match
                Rpc.Codec.decode_sub r.response_schema payload ~pos
                  ~len:(Bytes.length payload - pos)
              with
              | Ok v ->
                  Sim.Counter.incr (ctr t "nested_remote_replies");
                  if not (Rpc.Continuation.fire t.nested_conts cont v) then
                    Sim.Counter.incr (ctr t "nested_orphan_reply")
              | Error _ -> Sim.Counter.incr (ctr t "nested_bad_reply"))
          | None -> Sim.Counter.incr (ctr t "rx_stray_response")
        end

(* ---------- Response collection and egress --------------------------- *)

(* The per-RPC lookups of the in-flight table, here and in
   [worker_handle], allocate nothing. *)
let on_endpoint_response t line =
  let rpc_id = Message.response_rpc_id line in
  match Sim.Int_table.find t.inflight rpc_id with
  | exception Not_found ->
      if Sim.Int_table.mem t.acks rpc_id then Sim.Int_table.remove t.acks rpc_id
      else Sim.Counter.incr (ctr t "orphan_response")
  | app
    when is_nested rpc_id
         && Net.Ip_addr.equal app.request.Net.Frame.src.Net.Frame.ip
              (self_address t).Net.Frame.ip ->
      (* A reply to one of OUR nested calls, hairpinned locally. A
         request from another machine may carry that machine's nested
         tag in its id — those take the normal wire-reply path below. *)
      let result =
        match
          Rpc.Codec.decode_sub app.mdef.Rpc.Interface.response app.reply
            ~pos:app.body_off
            ~len:(Bytes.length app.reply - app.body_off)
        with
        | Ok v -> v
        | Error _ ->
            Sim.Counter.incr (ctr t "nested_bad_reply");
            Rpc.Value.Unit
      in
      retire_app t app;
      let cont = nested_cont rpc_id in
      (* Reply delivery to the waiting worker's reply end-point: one
         coherent fill. *)
      ignore
        (Sim.Engine.schedule_after t.engine
           ~after:(prof t).Coherence.Interconnect.load_response (fun () ->
             if not (Rpc.Continuation.fire t.nested_conts cont result) then
               Sim.Counter.incr (ctr t "nested_orphan_reply")))
  | app ->
      span_stage t ~rpc:rpc_id "collect";
      (* Fidelity check: the inline prefix collected from the cache
         line must match the response body the handler produced. *)
      let reply = app.reply and off = app.body_off in
      if not (Message.response_inline_is_prefix_of line reply ~off) then
        Sim.Counter.incr (ctr t "response_corrupt");
      let st = app.sv.stats in
      Sim.Histogram.record st.latency (Sim.Engine.now t.engine - app.arrived);
      (match app.path with
      | Fast -> st.fast <- st.fast + 1
      | Queued -> st.queued <- st.queued + 1
      | Cold -> st.cold <- st.cold + 1);
      st.bytes_in <- st.bytes_in + app.arg_bytes;
      st.bytes_out <- st.bytes_out + (Bytes.length reply - off);
      let status = Message.response_status line in
      let kind =
        if Int.equal status 0 then Rpc.Wire_format.Response
        else Rpc.Wire_format.Error_reply status
      in
      let ctx = Obs.Tracer.context_of t.tracer ~rpc:rpc_id in
      (* The reply carries the request's ids: clients pick the response
         schema by (service, method). Its header goes into the room
         [worker_finish] left, unless the trace context came or went
         since: then the body is copied behind a header that fits. *)
      let service_id = service_id_of app.sv in
      let method_id = app.mdef.Rpc.Interface.method_id in
      let payload =
        if Int.equal (Rpc.Wire_format.header_room ctx) off then begin
          Rpc.Wire_format.write_header_into ~kind ?ctx ~rpc_id ~service_id
            ~method_id reply;
          reply
        end
        else
          Rpc.Wire_format.encode_body ~kind ?ctx ~rpc_id ~service_id
            ~method_id
            (Bytes.sub reply off (Bytes.length reply - off))
      in
      let frame =
        Net.Frame.reply_to ~src:app.request.Net.Frame.src
          ~dst:app.request.Net.Frame.dst payload
      in
      retire_app t app;
      transmit t ~after:(tx_mac_delay + crypto_cost t frame) ~stage:true frame

(* ---------- Crash/restart lifecycle ---------------------------------- *)

(* NIC-side teardown, run when the death push LANDS (not when the kill
   happens — the stale window in between is real and survivable). The
   NIC-SRAM queue contents survive into the service's limbo queue for
   redelivery after restart; whatever was already staged into (or
   parked on) the CONTROL lines was in the dead process's hands and is
   NACKed from the in-flight table — caught, never silently lost —
   in ascending rpc id order, whatever order the table holds them in. *)
let sweep_dead_service t sv =
  let sid = service_id_of sv in
  let limbo_ids = Sim.Int_table.create ~dummy:() 16 in
  Array.iter
    (fun w ->
      List.iter
        (fun ((msg : Message.request), _kernel_dispatch) ->
          Sim.Int_table.replace limbo_ids msg.Message.rpc_id ();
          Queue.add msg sv.limbo)
        (Endpoint.reset w.wep);
      w.active <- false;
      w.starting <- false;
      w.empty_cycles <- 0)
    sv.workers;
  sv.active_count <- 0;
  (* cold activations of now-dead workers *)
  Sim.Int_table.fold
    (fun id a acc -> if Int.equal a.svc_id sid then id :: acc else acc)
    t.acks []
  |> List.iter (Sim.Int_table.remove t.acks);
  let doomed =
    Sim.Int_table.fold
      (fun id app acc ->
        if
          Int.equal (service_id_of app.sv) sid
          && not (Sim.Int_table.mem limbo_ids id)
        then app :: acc
        else acc)
      t.inflight []
    |> List.sort (fun a b -> Int.compare a.rpc b.rpc)
  in
  List.iter
    (fun app ->
      let id = app.rpc and request = app.request in
      retire_app t app;
      Obs.Metrics.incr t.m_stale;
      if
        is_nested id
        && Net.Ip_addr.equal request.Net.Frame.src.Net.Frame.ip
             (self_address t).Net.Frame.ip
      then begin
        (* Hairpinned nested call into the dead service: unblock
           the waiting caller rather than NACK our own wire. *)
        if
          not
            (Rpc.Continuation.fire t.nested_conts (nested_cont id)
               Rpc.Value.Unit)
        then Sim.Counter.incr (ctr t "nested_orphan_reply")
      end
      else
        nack t ~rpc_id:id ~service_id:sid ~request
          ~code:Rpc.Wire_format.err_dead)
    doomed

(* Redeliver the crash survivors once the NIC learns the process is
   back. Their in-flight entries were retained, so client retransmits
   that raced the restart hit the duplicate-id suppression instead of
   double-executing. *)
let drain_limbo t sv =
  let sid = service_id_of sv in
  while not (Queue.is_empty sv.limbo) do
    let msg = Queue.pop sv.limbo in
    let w = choose_worker sv in
    sanitize_dispatch t sv;
    if Endpoint.deliver w.wep msg then Obs.Metrics.incr t.m_requeues
    else begin
      Obs.Metrics.incr t.m_crash_nacks;
      match Sim.Int_table.find t.inflight msg.Message.rpc_id with
      | app ->
          let request = app.request in
          retire_app t app;
          nack t ~rpc_id:msg.Message.rpc_id ~service_id:sid ~request
            ~code:Rpc.Wire_format.err_dead
      | exception Not_found -> ()
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

(* Dispatcher kernel threads under [Os_integrated]. *)
let n_dispatchers = 2

let create engine ~cfg ~ncores ?(binding = Os_integrated)
    ?(mirror_mode = Sched_mirror.Push) ?(fault = Fault.Plan.none) ?metrics
    ?tracer ?sanitize ~services ~egress () =
  if List.is_empty services then invalid_arg "Stack.create: no services";
  (match binding with
  | Os_integrated -> ()
  | Static ->
      if
        List.exists
          (fun s -> s.min_workers < 1 || s.max_workers > 1)
          services
      then
        invalid_arg
          "Stack.create: a Static binding pins exactly one worker per service");
  let kern = Osmodel.Kernel.create engine ~ncores () in
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
      by_port = Hashtbl.create 64;
      egress;
      counters = Sim.Counter.group (name_of_binding binding);
      (* two arrays of 2048 words: the footprint of a 4096-bucket Hashtbl *)
      inflight = Sim.Int_table.create ~dummy:idle 2048;
      app_slots = Sim.Slot_pool.create ();
      apps_made = 0;
      acks = Sim.Int_table.create ~dummy:no_ack 16;
      services = Hashtbl.create 32;
      dispatchers = [||];
      parked_eps = Hashtbl.create 64;
      metrics;
      tracer;
      trk = Obs.Tracer.track tracer (name_of_binding binding);
      trk_detail = Obs.Tracer.track tracer "nic-pipeline";
      remotes = Hashtbl.create 16;
      address = None;
      nested_conts = Rpc.Continuation.create ();
      rx_slots = Sim.Slot_pool.create ();
      tx_slots = Sim.Slot_pool.create ();
      next_dispatch_id = -1;
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
        Array.init n_dispatchers (fun i ->
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
      if Hashtbl.mem t.by_port sspec.port then
        invalid_arg (Printf.sprintf "Stack.create: port %d taken" sspec.port);
      if Hashtbl.mem t.services svc.Rpc.Interface.service_id then
        invalid_arg
          (Printf.sprintf "Stack.create: service id %d taken"
             svc.Rpc.Interface.service_id);
      let affinity =
        match binding with
        | Static -> Some (i mod ncores)
        | Os_integrated -> None
      in
      let sproc =
        Osmodel.Kernel.new_process kern ~name:svc.Rpc.Interface.service_name
      in
      let sv =
        {
          sspec;
          sproc;
          (* A fake 4 KiB code page per process, as [data_ptr] is a
             64 KiB data area: one 64-byte entry per method. *)
          code_ptrs =
            Array.init
              (List.fold_left
                 (fun acc m -> max acc (m.Rpc.Interface.method_id + 1))
                 1 svc.Rpc.Interface.methods)
              (fun i ->
                Int64.of_int
                  (0x4000_0000 + (sproc.Osmodel.Proc.pid * 0x1000) + (i * 64)));
          data_ptr =
            Int64.of_int (0x7000_0000 + (sproc.Osmodel.Proc.pid * 0x10000));
          workers = [||];
          active_count = 0;
          limbo = Queue.create ();
          gate = Nic_sched.gate ();
          stats =
            {
              latency = Sim.Histogram.create ();
              fast = 0;
              queued = 0;
              cold = 0;
              bytes_in = 0;
              bytes_out = 0;
            };
        }
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
                fill_th = wthread;
                on_fill = no_fill;
                req_id = free_rpc;
                hand = idle;
                run_handler = nop;
                finish = no_result;
                loop = nop;
              }
            in
            w.on_fill <- worker_fill t sv w wthread;
            w.run_handler <- worker_run_handler t sv w;
            w.finish <- worker_finish t sv w wthread;
            w.loop <- worker_loop t sv w;
            w.wtx <-
              Some
                (Tx_endpoint.create ha cfg
                   ~on_line:(fun image -> on_tx_line t image)
                   ());
            w_ref := Some w;
            Hashtbl.replace t.parked_eps wthread.Osmodel.Proc.tid wep;
            w)
      in
      sv.workers <- workers;
      Hashtbl.add t.services svc.Rpc.Interface.service_id sv;
      Hashtbl.add t.by_port sspec.port sv;
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

let slots_made t = t.apps_made
let in_flight t = t.apps_made - Sim.Slot_pool.length t.app_slots
let active_workers t ~service_id = (service_rt t service_id).active_count

let service_stats t ~service_id = (service_rt t service_id).stats
let metrics t = t.metrics
let tracer t = t.tracer
let set_address t address = t.address <- Some address

let add_remote_service t ~service_id ~server ~response_schema =
  if Hashtbl.mem t.services service_id then
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

let driver t =
  Harness.Driver.make ~name:(name_of_binding t.binding)
    ~ingress:(fun f -> ingress t f)
    ~kernel:t.kern ~counters:t.counters ~metrics:t.metrics
    ()
