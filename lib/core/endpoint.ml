type t = {
  ha : Coherence.Home_agent.t;
  cfg : Config.t;
  eid : int;
  ctrl : Coherence.Home_agent.line_id array;
  on_response : bytes -> unit;
  fetched : (bytes option -> unit) array;
      (* the fetch-exclusive callback of each CONTROL line *)
  mutable on_parked : (unit -> unit) option;
  requests : bytes array;  (* the NIC's image of each CONTROL line ... *)
  responses : bytes array;  (* ... and the CPU's, written in place *)
  pending : (Message.request * bool) Queue.t;  (* request, kernel_dispatch *)
  mutable cur : int;
  (* The lines whose responses are still to collect, oldest first. Lines
     are staged alternately, so this queue of at most two is its head
     and its length. *)
  mutable collect_head : int;
  mutable to_collect : int;
  mutable outstanding : int;
  mutable n_delivered : int;
  mutable n_responses : int;
  mutable n_dropped : int;
}

let ctrl_line t i =
  if i <> 0 && i <> 1 then invalid_arg "Endpoint.ctrl_line: index not 0/1";
  t.ctrl.(i)

let engine t = Coherence.Home_agent.engine t.ha
let prof t = (t.cfg : Config.t).Config.profile

(* Auxiliary lines stream behind the CONTROL line at the coherent-path
   bandwidth (cf. Interconnect.line_transfer); oversized payloads use a
   DMA burst instead. *)
let aux_stream_delay t ~lines =
  let p = prof t in
  lines
  * int_of_float
      (Float.round
         (float_of_int (p.Coherence.Interconnect.cache_line_bytes * 8)
         /. p.Coherence.Interconnect.coherent_bandwidth_gbps))

let extra_request_delay t ~via_dma ~total_args ~aux_count =
  if via_dma then Coherence.Interconnect.dma_transfer (prof t) ~bytes:total_args
  else if aux_count > 0 then aux_stream_delay t ~lines:aux_count
  else 0

let extra_response_delay t line =
  let total_len = Message.response_total_len line in
  let rest = total_len - Message.response_inline_len line in
  if rest <= 0 then 0
  else if total_len > t.cfg.Config.dma_threshold then
    Coherence.Interconnect.dma_transfer (prof t) ~bytes:rest
  else aux_stream_delay t ~lines:(Message.response_aux_count line)

let line_image (cfg : Config.t) =
  Bytes.make cfg.Config.profile.Coherence.Interconnect.cache_line_bytes '\000'

(* Stage a request, given by its fields, into the current CONTROL line. *)
let stage_now t ~kernel_dispatch ~rpc_id ~service_id ~method_id ~code_ptr
    ~data_ptr ~total_args ~aux_count ~via_dma args ~off ~len =
  let c = t.cur in
  let line = t.ctrl.(c) in
  t.cur <- 1 - c;
  t.outstanding <- t.outstanding + 1;
  t.n_delivered <- t.n_delivered + 1;
  if Int.equal t.to_collect 0 then t.collect_head <- c;
  t.to_collect <- t.to_collect + 1;
  let delay = extra_request_delay t ~via_dma ~total_args ~aux_count in
  (* Line [c]'s last request was read when its response was written, so
     its image is free to overwrite. *)
  let image = t.requests.(c) in
  Message.write_request_into image ~kernel_dispatch ~rpc_id ~service_id
    ~method_id ~code_ptr ~data_ptr ~total_args ~aux_count ~via_dma args ~off
    ~len;
  if delay = 0 then Coherence.Home_agent.stage t.ha line image
  else
    ignore
      (Sim.Engine.schedule_after (engine t) ~after:delay (fun () ->
           Coherence.Home_agent.stage t.ha line image))

let stage_msg t (msg : Message.request) ~kernel_dispatch =
  let a = msg.Message.inline_args in
  stage_now t ~kernel_dispatch ~rpc_id:msg.Message.rpc_id
    ~service_id:msg.Message.service_id ~method_id:msg.Message.method_id
    ~code_ptr:msg.Message.code_ptr ~data_ptr:msg.Message.data_ptr
    ~total_args:msg.Message.total_args ~aux_count:msg.Message.aux_count
    ~via_dma:msg.Message.via_dma a.Net.Slice.base ~off:a.Net.Slice.off
    ~len:a.Net.Slice.len

let rec try_deliver t =
  if t.outstanding < 2 then
    match Queue.take_opt t.pending with
    | Some (msg, kernel_dispatch) ->
        stage_msg t msg ~kernel_dispatch;
        try_deliver t
    | None -> ()

let can_stage t = t.outstanding < 2 && Queue.is_empty t.pending

let enqueue t msg ~kernel_dispatch =
  if Queue.length t.pending < t.cfg.Config.nic_queue_depth then begin
    Queue.add (msg, kernel_dispatch) t.pending;
    true
  end
  else begin
    t.n_dropped <- t.n_dropped + 1;
    false
  end

let deliver ?(kernel_dispatch = false) t msg =
  if can_stage t then begin
    stage_msg t msg ~kernel_dispatch;
    true
  end
  else enqueue t msg ~kernel_dispatch

(* A request record is built only when the request must wait in SRAM. *)
let[@hot_path] deliver_request t ~rpc_id ~service_id ~method_id ~code_ptr
    ~data_ptr ~total_args ~aux_count ~via_dma args ~off ~len =
  if can_stage t then begin
    stage_now t ~kernel_dispatch:false ~rpc_id ~service_id ~method_id
      ~code_ptr ~data_ptr ~total_args ~aux_count ~via_dma args ~off ~len;
    true
  end
  else
    enqueue t ~kernel_dispatch:false
      ({
         Message.rpc_id;
         service_id;
         method_id;
         code_ptr;
         data_ptr;
         total_args;
         inline_args = Net.Slice.make args ~off ~len;
         aux_count;
         via_dma;
       } [@alloc_ok])

let finish t line =
  t.outstanding <- t.outstanding - 1;
  t.n_responses <- t.n_responses + 1;
  t.on_response line;
  try_deliver t

(* A CONTROL line's fetch-exclusive callback: the response line is read
   in place and handed on whole. A response held back for its aux lines
   or DMA is copied first: the CPU may write its next response into the
   same image before this one is finished. *)
let fetched t c data =
  match data with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Endpoint %d: fetch-exclusive found no response in line %d" t.eid
           c)
  | Some line ->
      if not (Message.response_ok line) then
        invalid_arg
          (Printf.sprintf "Endpoint %d: bad response line in line %d" t.eid c);
      let delay = extra_response_delay t line in
      if delay = 0 then finish t line
      else begin
        let held = Bytes.copy line in
        ignore
          (Sim.Engine.schedule_after (engine t) ~after:delay (fun () ->
               finish t held))
      end

let on_ctrl_load t j ~served =
  let c = t.collect_head in
  if t.to_collect > 0 && Int.equal c (1 - j) then begin
    t.collect_head <- 1 - c;
    t.to_collect <- t.to_collect - 1;
    Coherence.Home_agent.fetch_exclusive t.ha t.ctrl.(c) t.fetched.(c)
  end;
  if not served then begin
    (match t.on_parked with Some f -> f () | None -> ());
    try_deliver t
  end

let response_image t i =
  if i <> 0 && i <> 1 then
    invalid_arg "Endpoint.response_image: index not 0/1";
  t.responses.(i)

let set_on_parked t f = t.on_parked <- Some f
let parked t = Coherence.Home_agent.load_parked t.ha t.ctrl.(t.cur)
let kick t = if parked t then Coherence.Home_agent.kick t.ha t.ctrl.(t.cur)

let retire t =
  if parked t then begin
    (* Complete the parked load with a RETIRE marker. The line is not a
       delivery: no credit consumed, no response expected, so [cur] and
       the collect queue stay untouched. *)
    Coherence.Home_agent.stage t.ha t.ctrl.(t.cur)
      (Message.encode
         ~line_bytes:(prof t).Coherence.Interconnect.cache_line_bytes
         Message.Retire);
    true
  end
  else false
let reset t =
  (* Crash teardown. The SRAM queue survives on the NIC and is handed
     back to the stack for requeueing; everything staged in (or parked
     on) the CONTROL lines is torn down — those RPCs were in the dead
     process's hands and must be NACKed by the caller. *)
  let requeue = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  Coherence.Home_agent.reset_line t.ha t.ctrl.(0);
  Coherence.Home_agent.reset_line t.ha t.ctrl.(1);
  (* Fresh images: a stage or fill still in flight keeps the bytes it
     left with, and cannot be overwritten by the restarted process's
     traffic. *)
  for i = 0 to 1 do
    t.requests.(i) <- line_image t.cfg;
    t.responses.(i) <- line_image t.cfg
  done;
  t.collect_head <- 0;
  t.to_collect <- 0;
  t.cur <- 0;
  t.outstanding <- 0;
  requeue

let queue_depth t = Queue.length t.pending
let in_flight t = t.outstanding
let stats_delivered t = t.n_delivered
let stats_responses t = t.n_responses
let stats_dropped t = t.n_dropped

let create ha cfg ~id ~on_response () =
  let t =
    {
      ha;
      cfg;
      eid = id;
      ctrl =
        [| Coherence.Home_agent.alloc_line ha;
           Coherence.Home_agent.alloc_line ha |];
      on_response;
      fetched = Array.make 2 ignore;
      on_parked = None;
      requests = Array.init 2 (fun _ -> line_image cfg);
      responses = Array.init 2 (fun _ -> line_image cfg);
      pending = Queue.create ();
      cur = 0;
      collect_head = 0;
      to_collect = 0;
      outstanding = 0;
      n_delivered = 0;
      n_responses = 0;
      n_dropped = 0;
    }
  in
  t.fetched.(0) <- fetched t 0;
  t.fetched.(1) <- fetched t 1;
  Coherence.Home_agent.set_on_load ha t.ctrl.(0) (fun ~served ->
      on_ctrl_load t 0 ~served);
  Coherence.Home_agent.set_on_load ha t.ctrl.(1) (fun ~served ->
      on_ctrl_load t 1 ~served);
  t

