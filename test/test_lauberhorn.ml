(* Tests for the Lauberhorn core library: configuration, the CONTROL
   line message layout, the endpoint protocol machine, the scheduling
   mirror, NIC scheduling policy, the hardware pipeline, and the full
   stack end to end. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Config ---------- *)

let test_config_defaults_match_paper () =
  let c = Lauberhorn.Config.enzian in
  checki "15ms timeout" (Sim.Units.ms 15) c.Lauberhorn.Config.tryagain_timeout;
  checki "4KiB threshold" 4096 c.Lauberhorn.Config.dma_threshold;
  (* Endpoint window should be in the same band as the DMA threshold,
     so the fallback point is consistent (section 6). *)
  let window = Lauberhorn.Config.endpoint_window c in
  checkb "window ~ threshold" true (window >= 3500 && window <= 4608)

let test_config_updates_validate () =
  checkb "bad timeout" true
    (try
       ignore (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian 0);
       false
     with Invalid_argument _ -> true);
  let c = Lauberhorn.Config.with_dma_threshold Lauberhorn.Config.enzian 512 in
  checki "threshold set" 512 c.Lauberhorn.Config.dma_threshold

(* ---------- Message ---------- *)

let sample_request ?(inline = Net.Slice.of_string "abc") () =
  {
    Lauberhorn.Message.rpc_id = 77;
    service_id = 3;
    method_id = 1;
    code_ptr = 0x4000_1234L;
    data_ptr = 0x7000_5678L;
    total_args = 300;
    inline_args = inline;
    aux_count = 2;
    via_dma = false;
  }

let test_message_request_roundtrip () =
  let msg = Lauberhorn.Message.Request (sample_request ()) in
  let line = Lauberhorn.Message.encode ~line_bytes:128 msg in
  checki "line-sized" 128 (Bytes.length line);
  match Lauberhorn.Message.decode line with
  | Ok (Lauberhorn.Message.Request r) ->
      check Alcotest.int "rpc_id" 77 r.Lauberhorn.Message.rpc_id;
      checki "service" 3 r.Lauberhorn.Message.service_id;
      check Alcotest.int64 "code_ptr" 0x4000_1234L
        r.Lauberhorn.Message.code_ptr;
      check Alcotest.string "inline args" "abc"
        (Net.Slice.to_string r.Lauberhorn.Message.inline_args);
      checki "aux" 2 r.Lauberhorn.Message.aux_count;
      checkb "dma flag" false r.Lauberhorn.Message.via_dma
  | Ok m -> Alcotest.failf "wrong kind: %a" Lauberhorn.Message.pp m
  | Error e -> Alcotest.fail e

let test_message_markers () =
  List.iter
    (fun (msg, name) ->
      match
        Lauberhorn.Message.decode
          (Lauberhorn.Message.encode ~line_bytes:128 msg)
      with
      | Ok m when Lauberhorn.Message.equal m msg -> ()
      | Ok m -> Alcotest.failf "%s decoded as %a" name Lauberhorn.Message.pp m
      | Error e -> Alcotest.fail e)
    [
      (Lauberhorn.Message.Tryagain, "tryagain");
      (Lauberhorn.Message.Retire, "retire");
      (Lauberhorn.Message.Kernel_dispatch (sample_request ()), "dispatch");
    ]

let test_message_response_roundtrip () =
  let line =
    Lauberhorn.Message.write_response ~line_bytes:128 ~rpc_id:99 ~status:2
      ~total_len:1000 ~aux_count:8 (Bytes.of_string "..xyz.") ~off:2 ~len:3
  in
  checki "line-sized" 128 (Bytes.length line);
  match Lauberhorn.Message.decode_response line with
  | Ok r ->
      check Alcotest.int "id" 99 r.Lauberhorn.Message.resp_rpc_id;
      checki "status" 2 r.Lauberhorn.Message.status;
      checki "total" 1000 r.Lauberhorn.Message.total_len;
      checki "aux" 8 r.Lauberhorn.Message.resp_aux_count;
      check Alcotest.string "inline" "xyz"
        (Net.Slice.to_string r.Lauberhorn.Message.inline_body)
  | Error e -> Alcotest.fail e

let test_message_capacity_enforced () =
  let cap = Lauberhorn.Message.request_inline_capacity ~line_bytes:64 in
  checki "64B line capacity" 24 cap;
  checkb "overflow rejected" true
    (try
       ignore
         (Lauberhorn.Message.encode ~line_bytes:64
            (Lauberhorn.Message.Request
               (sample_request
                  ~inline:(Net.Slice.of_bytes (Bytes.make (cap + 1) 'x'))
                  ())));
       false
     with Invalid_argument _ -> true)

let message_roundtrip_property =
  QCheck.Test.make ~name:"request lines decode to what was staged"
    ~count:300
    QCheck.(
      quad (int_bound 0xffff) (int_bound 50)
        (string_of_size (Gen.int_range 0 80))
        bool)
    (fun (service_id, aux_count, inline, via_dma) ->
      let msg =
        Lauberhorn.Message.Request
          {
            Lauberhorn.Message.rpc_id = service_id;
            service_id;
            method_id = 0;
            code_ptr = 1L;
            data_ptr = 2L;
            total_args = String.length inline;
            inline_args = Net.Slice.of_string inline;
            aux_count;
            via_dma;
          }
      in
      let line = Lauberhorn.Message.encode ~line_bytes:128 msg in
      (match Lauberhorn.Message.decode line with
      | Ok m -> Lauberhorn.Message.equal m msg
      | Error _ -> false)
      (* and the in-place readers read what was staged *)
      && Lauberhorn.Message.kind line = Lauberhorn.Message.Request_line
      && Int.equal (Lauberhorn.Message.request_rpc_id line) service_id
      && Lauberhorn.Message.request_total_args line = String.length inline
      && Bool.equal (Lauberhorn.Message.request_via_dma line) via_dma)

(* The line readers against [decode] and [decode_response] on request,
   KERNEL_DISPATCH, TRYAGAIN, RETIRE and response lines of 64 or 128
   bytes, kept whole, cut short, bit-flipped or replaced by random bytes
   ([Wire_gen.mangle], as the RPC frames of test_rpc), and on every cut
   of the whole line. Every reader runs on every input, so none may
   raise. [kind] is [Bad_line] exactly when
   [decode] fails and [response_ok] exactly when [decode_response]
   succeeds; on a line they accept, each field reader reads what the
   decoded record holds, and the in-place prefix check answers what
   [Net.Slice.is_prefix_of] does on the decoded inline body. *)
let random_line rng =
  let line_bytes = if Sim.Rng.int rng ~bound:2 = 0 then 64 else 128 in
  let inline cap =
    Net.Slice.of_bytes
      (Wire_gen.random_wire_bytes rng (Sim.Rng.int rng ~bound:(cap + 1)))
  in
  (* a response body read from the middle of a larger buffer *)
  let pad = Sim.Rng.int rng ~bound:8 in
  let request () =
    {
      Lauberhorn.Message.rpc_id = Int64.to_int (Sim.Rng.bits64 rng);
      service_id = Sim.Rng.int rng ~bound:1_000_000;
      method_id = Sim.Rng.int rng ~bound:0x10000;
      code_ptr = Sim.Rng.bits64 rng;
      data_ptr = Sim.Rng.bits64 rng;
      total_args = Sim.Rng.int rng ~bound:100_000;
      inline_args =
        inline (Lauberhorn.Message.request_inline_capacity ~line_bytes);
      aux_count = Sim.Rng.int rng ~bound:100;
      via_dma = Sim.Rng.int rng ~bound:2 = 0;
    }
  in
  let encode = Lauberhorn.Message.encode ~line_bytes in
  match Sim.Rng.int rng ~bound:5 with
  | 0 -> encode (Lauberhorn.Message.Request (request ()))
  | 1 -> encode (Lauberhorn.Message.Kernel_dispatch (request ()))
  | 2 -> encode Lauberhorn.Message.Tryagain
  | 3 -> encode Lauberhorn.Message.Retire
  | _ ->
      let body =
        inline (Lauberhorn.Message.response_inline_capacity ~line_bytes)
      in
      let len = Net.Slice.length body in
      let buf = Bytes.make (pad + len + pad) 'p' in
      Net.Slice.blit body buf ~dst_off:pad;
      Lauberhorn.Message.write_response ~line_bytes
        ~rpc_id:(Int64.to_int (Sim.Rng.bits64 rng))
        ~status:(Sim.Rng.int rng ~bound:0x10000)
        ~total_len:(Sim.Rng.int rng ~bound:100_000)
        ~aux_count:(Sim.Rng.int rng ~bound:100)
        buf ~off:pad ~len

(* Every cut of a line, the boundary cases included. *)
let cuts b = List.init (Bytes.length b) (fun n -> Bytes.sub b 0 n)

(* A line cut short decodes exactly when the cut keeps the line's
   header and inline bytes (the tag alone for TRYAGAIN and RETIRE), and
   then to what the whole line decodes to. *)
let line_cut_agrees ~orig line =
  let module M = Lauberhorn.Message in
  let n = Bytes.length line in
  (not (Wire_gen.is_cut ~orig line))
  ||
  match (M.decode orig, M.decode_response orig) with
  | Ok ((M.Request r | M.Kernel_dispatch r) as o), _ -> (
      let whole = M.request_header_bytes + Net.Slice.length r.M.inline_args in
      match M.decode line with
      | Ok m -> n >= whole && M.equal m o
      | Error _ -> n < whole)
  | Ok ((M.Tryagain | M.Retire) as o), _ -> (
      match M.decode line with
      | Ok m -> n >= 1 && M.equal m o
      | Error _ -> n < 1)
  | Error _, Ok o -> (
      let whole = M.response_header_bytes + Net.Slice.length o.M.inline_body in
      match M.decode_response line with
      | Ok m -> n >= whole && M.equal_response m o
      | Error _ -> n < whole)
  | Error _, Error _ -> false

(* The readers of one line against [decode] and [decode_response]. *)
let line_readers_agree_on rng line =
  let module M = Lauberhorn.Message in
  let kind = M.kind line
  and rpc_id = M.request_rpc_id line
  and total_args = M.request_total_args line
  and via_dma = M.request_via_dma line
  and ok = M.response_ok line
  and resp_rpc_id = M.response_rpc_id line
  and status = M.response_status line
  and total_len = M.response_total_len line
  and inline_len = M.response_inline_len line
  and aux_count = M.response_aux_count line in
  (* defined only on lines [response_ok] accepts, but total *)
  ignore
    (M.response_inline_is_prefix_of line
       (Wire_gen.random_wire_bytes rng (Sim.Rng.int rng ~bound:110))
       ~off:(Sim.Rng.int rng ~bound:120 - 5));
  (match (M.decode line, kind) with
  | Ok (M.Request r), M.Request_line
  | Ok (M.Kernel_dispatch r), M.Kernel_dispatch_line ->
      Int.equal r.M.rpc_id rpc_id
      && r.M.total_args = total_args
      && Bool.equal r.M.via_dma via_dma
  | Ok M.Tryagain, M.Tryagain_line | Ok M.Retire, M.Retire_line -> true
  | Error _, M.Bad_line -> true
  | Ok _, _ | Error _, _ -> false)
  &&
  match M.decode_response line with
  | Error _ -> not ok
  | Ok r ->
      let inline = r.M.inline_body in
      let body = Net.Slice.to_bytes inline in
      let flipped = Bytes.copy body in
      if Bytes.length flipped > 0 then
        Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
      ok
      && Int.equal r.M.resp_rpc_id resp_rpc_id
      && r.M.status = status
      && r.M.total_len = total_len
      && Net.Slice.length inline = inline_len
      && r.M.resp_aux_count = aux_count
      && List.for_all
           (fun b ->
             (* At offset 0, and behind 5 bytes of room at offset 5. *)
             let roomy = Bytes.cat (Bytes.make 5 'r') b in
             let want = Net.Slice.is_prefix_of inline b in
             Bool.equal (M.response_inline_is_prefix_of line b ~off:0) want
             && Bool.equal
                  (M.response_inline_is_prefix_of line roomy ~off:5)
                  want)
           [
             body;
             Bytes.cat body (Bytes.make 3 'x');
             flipped;
             Bytes.sub body 0 (Bytes.length body / 2);
           ]

let line_readers_agree =
  QCheck.Test.make ~name:"line readers agree with decode" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let orig = random_line rng in
      let line = Wire_gen.mangle rng (Bytes.copy orig) in
      List.for_all
        (fun l -> line_readers_agree_on rng l && line_cut_agrees ~orig l)
        (line :: cuts orig))

(* ---------- Endpoint protocol ---------- *)

type ep_env = {
  engine : Sim.Engine.t;
  ha : Coherence.Home_agent.t;
  ep : Lauberhorn.Endpoint.t;
  responses : Lauberhorn.Message.response list ref;
}

let make_ep ?(cfg = Lauberhorn.Config.enzian) () =
  let engine = Sim.Engine.create () in
  let ha =
    Coherence.Home_agent.create engine cfg.Lauberhorn.Config.profile
      ~timeout:cfg.Lauberhorn.Config.tryagain_timeout ()
  in
  let responses = ref [] in
  let ep =
    Lauberhorn.Endpoint.create ha cfg ~id:0
      ~on_response:(fun line ->
        match Lauberhorn.Message.decode_response line with
        | Ok r -> responses := r :: !responses
        | Error e -> Alcotest.fail e)
      ()
  in
  { engine; ha; ep; responses }

let req id =
  {
    Lauberhorn.Message.rpc_id = id;
    service_id = 1;
    method_id = 0;
    code_ptr = 0x4000L;
    data_ptr = 0x7000L;
    total_args = 4;
    inline_args = Net.Slice.of_string "args";
    aux_count = 0;
    via_dma = false;
  }

let resp_line ~line_bytes id =
  Lauberhorn.Message.write_response ~line_bytes ~rpc_id:id
    ~status:0 ~total_len:2 ~aux_count:0 (Bytes.of_string "ok") ~off:0 ~len:2

(* Drive the CPU side of an endpoint like a worker loop would: load,
   handle for [work] ns, store a response, flip, load the other line,
   forever (response collection rides on the next-line load, exactly as
   in Figure 4). *)
let cpu_loop env ~work =
  let line_bytes = 128 in
  let handled = ref [] in
  let rec go idx =
    Coherence.Home_agent.cpu_load env.ha
      (Lauberhorn.Endpoint.ctrl_line env.ep idx)
      (fun fill ->
        match fill with
        | Coherence.Home_agent.Tryagain -> go idx
        | Coherence.Home_agent.Data line -> (
            match Lauberhorn.Message.decode line with
            | Ok (Lauberhorn.Message.Request r) ->
                handled :=
                  r.Lauberhorn.Message.rpc_id :: !handled;
                ignore
                  (Sim.Engine.schedule_after env.engine ~after:work
                     (fun () ->
                       Coherence.Home_agent.cpu_store env.ha
                         (Lauberhorn.Endpoint.ctrl_line env.ep idx)
                         (resp_line ~line_bytes
                            (r.Lauberhorn.Message.rpc_id));
                       go (1 - idx)))
            | Ok _ | Error _ -> Alcotest.fail "bad line"))
  in
  go 0;
  handled

let test_endpoint_fast_path_single () =
  let env = make_ep () in
  let handled = cpu_loop env ~work:500 in
  ignore
    (Sim.Engine.schedule_after env.engine ~after:1000 (fun () ->
         checkb "parked before delivery" true
           (Lauberhorn.Endpoint.parked env.ep);
         checkb "delivered" true (Lauberhorn.Endpoint.deliver env.ep (req 1))));
  Sim.Engine.run env.engine ~until:(Sim.Units.ms 1);
  check (Alcotest.list Alcotest.int) "handled" [ 1 ] !handled;
  checki "one response" 1 (List.length !(env.responses));
  (match !(env.responses) with
  | [ r ] ->
      check Alcotest.int "response id" 1 r.Lauberhorn.Message.resp_rpc_id;
      check Alcotest.string "response body from real line" "ok"
        (Net.Slice.to_string r.Lauberhorn.Message.inline_body)
  | _ -> Alcotest.fail "responses");
  checki "delivered stat" 1 (Lauberhorn.Endpoint.stats_delivered env.ep);
  checki "responses stat" 1 (Lauberhorn.Endpoint.stats_responses env.ep)

let test_endpoint_double_buffering_pipeline () =
  let env = make_ep () in
  let handled = cpu_loop env ~work:500 in
  (* Burst of 4 requests: two stage into the lines, two queue in SRAM. *)
  ignore
    (Sim.Engine.schedule_after env.engine ~after:1000 (fun () ->
         for i = 1 to 4 do
           checkb "accepted" true (Lauberhorn.Endpoint.deliver env.ep (req i))
         done;
         checki "two queued in SRAM" 2 (Lauberhorn.Endpoint.queue_depth env.ep);
         checki "two in flight" 2 (Lauberhorn.Endpoint.in_flight env.ep)));
  Sim.Engine.run env.engine ~until:(Sim.Units.ms 5);
  check (Alcotest.list Alcotest.int) "handled in order" [ 1; 2; 3; 4 ]
    (List.rev !handled);
  checki "all responses" 4 (List.length !(env.responses));
  checki "queue drained" 0 (Lauberhorn.Endpoint.queue_depth env.ep);
  checki "none in flight" 0 (Lauberhorn.Endpoint.in_flight env.ep)

let test_endpoint_sram_overflow_drops () =
  let cfg =
    { Lauberhorn.Config.enzian with Lauberhorn.Config.nic_queue_depth = 2 }
  in
  let env = make_ep ~cfg () in
  (* No CPU attached: nothing consumes; 2 staged + 2 queued, rest drop. *)
  let accepted = ref 0 in
  for i = 1 to 6 do
    if Lauberhorn.Endpoint.deliver env.ep (req i) then incr accepted
  done;
  checki "accepted 4" 4 !accepted;
  checki "dropped 2" 2 (Lauberhorn.Endpoint.stats_dropped env.ep)

let test_endpoint_kick_and_on_parked () =
  let env = make_ep () in
  let parked_events = ref 0 in
  Lauberhorn.Endpoint.set_on_parked env.ep (fun () -> incr parked_events);
  let fills = ref [] in
  Coherence.Home_agent.cpu_load env.ha
    (Lauberhorn.Endpoint.ctrl_line env.ep 0)
    (fun fill -> fills := fill :: !fills);
  ignore
    (Sim.Engine.schedule_after env.engine ~after:1000 (fun () ->
         Lauberhorn.Endpoint.kick env.ep));
  Sim.Engine.run env.engine ~until:(Sim.Units.ms 1);
  checki "parked seen" 1 !parked_events;
  checkb "tryagain delivered" true
    (!fills = [ Coherence.Home_agent.Tryagain ]);
  checkb "no longer parked" false (Lauberhorn.Endpoint.parked env.ep)

let test_endpoint_dma_request_delay () =
  let env = make_ep () in
  let big =
    {
      (req 1) with
      Lauberhorn.Message.total_args = 16384;
      via_dma = true;
      inline_args = Net.Slice.empty;
    }
  in
  let got_at = ref (-1) in
  Coherence.Home_agent.cpu_load env.ha
    (Lauberhorn.Endpoint.ctrl_line env.ep 0)
    (fun _ -> got_at := Sim.Engine.now env.engine);
  ignore
    (Sim.Engine.schedule_after env.engine ~after:100 (fun () ->
         ignore (Lauberhorn.Endpoint.deliver env.ep big)));
  Sim.Engine.run env.engine ~until:(Sim.Units.ms 1);
  let dma =
    Coherence.Interconnect.dma_transfer Coherence.Interconnect.eci
      ~bytes:16384
  in
  checkb "line held back until payload DMA done" true (!got_at >= 100 + dma)

(* ---------- Sched mirror ---------- *)

let test_mirror_push_tracks_with_lag () =
  let e = Sim.Engine.create () in
  let k = Osmodel.Kernel.create e ~ncores:2 () in
  let m =
    Lauberhorn.Sched_mirror.create ~mode:Lauberhorn.Sched_mirror.Push
      Coherence.Interconnect.eci k
  in
  checki "free lookup" 0 (Lauberhorn.Sched_mirror.lookup_cost m);
  let proc = Osmodel.Kernel.new_process k ~name:"svc" in
  let th_ref = ref None in
  let th =
    Osmodel.Kernel.spawn k proc ~name:"w" (fun () ->
        Osmodel.Kernel.run_for k (Option.get !th_ref)
          ~kind:Osmodel.Cpu_account.User (Sim.Units.us 50) (fun () ->
            Osmodel.Kernel.exit_thread k (Option.get !th_ref)))
  in
  th_ref := Some th;
  Osmodel.Kernel.wake k th;
  (* Immediately after the wake, the mirror has not yet seen the push. *)
  checkb "lagging view" true
    (Lauberhorn.Sched_mirror.cores_running m ~pid:proc.Osmodel.Proc.pid = []);
  Sim.Engine.run e ~until:(Sim.Units.us 10);
  checkb "after push: visible" true
    (Lauberhorn.Sched_mirror.is_running m ~pid:proc.Osmodel.Proc.pid);
  Sim.Engine.run e ~until:(Sim.Units.us 100);
  checkb "after exit: gone" false
    (Lauberhorn.Sched_mirror.is_running m ~pid:proc.Osmodel.Proc.pid);
  checkb "pushes happened" true (Lauberhorn.Sched_mirror.pushes m > 0)

let test_mirror_query_costs_mmio () =
  let e = Sim.Engine.create () in
  let k = Osmodel.Kernel.create e ~ncores:1 () in
  let m =
    Lauberhorn.Sched_mirror.create ~mode:Lauberhorn.Sched_mirror.Query
      Coherence.Interconnect.eci k
  in
  checki "mmio lookup"
    Coherence.Interconnect.eci.Coherence.Interconnect.mmio_read
    (Lauberhorn.Sched_mirror.lookup_cost m);
  checki "no pushes" 0 (Lauberhorn.Sched_mirror.pushes m)

(* ---------- Nic_sched ---------- *)

let test_nic_sched_scale_up_on_queue () =
  let d depth =
    Lauberhorn.Nic_sched.decide (Lauberhorn.Nic_sched.gate ()) ~shed:false
      ~queue_depth:depth
  in
  checkb "queue above watermark" true (d 5 = Lauberhorn.Nic_sched.Add_worker);
  checkb "steady at watermark" true (d 4 = Lauberhorn.Nic_sched.Steady);
  checkb "steady below" true (d 1 = Lauberhorn.Nic_sched.Steady)

let test_nic_sched_shed_hysteresis () =
  let g = Lauberhorn.Nic_sched.gate () in
  let d depth = Lauberhorn.Nic_sched.decide g ~shed:true ~queue_depth:depth in
  (* In the band but below the high watermark: never sheds, and a
     constant arrival rate gives a constant decision — no flapping. *)
  let first = d 10 in
  for _ = 1 to 50 do
    checkb "constant depth, constant decision" true (d 10 = first)
  done;
  checkb "no shed below hi" true (first <> Lauberhorn.Nic_sched.Shed);
  (* Cross the high watermark: shed latches... *)
  checkb "sheds at hi" true (d 20 = Lauberhorn.Nic_sched.Shed);
  (* ...and stays latched while the queue sits inside the band. *)
  for _ = 1 to 50 do
    checkb "still shedding in band" true (d 10 = Lauberhorn.Nic_sched.Shed)
  done;
  (* Only draining to the low watermark clears it. *)
  checkb "clears at lo" true (d 4 <> Lauberhorn.Nic_sched.Shed);
  checkb "stays clear in band" true (d 10 <> Lauberhorn.Nic_sched.Shed)

let nic_sched_shed_hysteresis_property =
  QCheck.Test.make
    ~name:"shed follows the hysteresis model; never sheds when disabled"
    ~count:300
    QCheck.(pair bool (list (int_bound 32)))
    (fun (shed, depths) ->
      let g = Lauberhorn.Nic_sched.gate () in
      let shedding = ref false in
      List.for_all
        (fun depth ->
          let d = Lauberhorn.Nic_sched.decide g ~shed ~queue_depth:depth in
          (if shed then
             if !shedding then (if depth <= 4 then shedding := false)
             else if depth >= 16 then shedding := true);
          (d = Lauberhorn.Nic_sched.Shed) = (shed && !shedding))
        depths)

(* ---------- Pipeline ---------- *)

let test_pipeline_breakdown () =
  let b =
    Lauberhorn.Pipeline.rx Lauberhorn.Config.enzian ~mirror_lookup:0
      ~fields:4 ~arg_bytes:64
  in
  checki "total is sum"
    (b.Lauberhorn.Pipeline.parse + b.Lauberhorn.Pipeline.demux
    + b.Lauberhorn.Pipeline.deser + b.Lauberhorn.Pipeline.mirror_lookup)
    b.Lauberhorn.Pipeline.total;
  let b2 =
    Lauberhorn.Pipeline.rx Lauberhorn.Config.enzian ~mirror_lookup:1_000
      ~fields:4 ~arg_bytes:64
  in
  checki "lookup adds" (b.Lauberhorn.Pipeline.total + 1_000)
    b2.Lauberhorn.Pipeline.total

(* ---------- Full stack ---------- *)

type stack_env = {
  sengine : Sim.Engine.t;
  stack : Lauberhorn.Stack.t;
  recorder : Harness.Recorder.t;
  driver : Harness.Driver.t;
}

let make_stack ?(cfg = Lauberhorn.Config.enzian) ?(ncores = 4) ?mirror_mode
    ~services () =
  let sengine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create sengine in
  let stack =
    Lauberhorn.Stack.create sengine ~cfg ~ncores ?mirror_mode ~services
      ~egress:(Harness.Recorder.egress recorder)
      ()
  in
  { sengine; stack; recorder; driver = Lauberhorn.Stack.driver stack }

let echo_spec ?min_workers ?max_workers ~port ~id () =
  Lauberhorn.Stack.spec ?min_workers ?max_workers ~port
    (Rpc.Interface.echo_service ~id)

let test_stack_echo_end_to_end () =
  let env = make_stack ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  let payload = Bytes.of_string "round-trip-me" in
  let seen = ref None in
  Harness.Recorder.on_complete env.recorder (fun ~rpc_id ~latency ->
      seen := Some (rpc_id, latency));
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:42
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000 (Rpc.Value.Blob payload)));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 2);
  (match !seen with
  | Some (42L, latency) ->
      (* End-system latency for a hot 64B-ish echo should be in the
         single-digit microseconds on the ECI profile. *)
      checkb "latency band" true
        (latency > Sim.Units.ns 500 && latency < Sim.Units.us 10)
  | Some _ | None -> Alcotest.fail "no completion");
  checki "completed" 1 (Harness.Recorder.completed env.recorder);
  let fast =
    Sim.Counter.value
      (Sim.Counter.counter
         (Lauberhorn.Stack.counters env.stack)
         "fast_path")
  in
  checki "took the fast path" 1 fast

let test_stack_response_payload_fidelity () =
  (* The counter service computes: response must reflect real state. *)
  let svc = Rpc.Interface.counter_service ~id:9 in
  let env =
    make_stack
      ~services:[ Lauberhorn.Stack.spec ~port:7009 svc ]
      ()
  in
  let next = ref 0 in
  let fire v =
    incr next;
    Harness.Traffic.inject env.recorder env.driver
      ~client:Harness.Traffic.default_client
      ~rpc_id:!next ~service_id:9 ~method_id:0 ~port:7009
      (Rpc.Value.int v)
  in
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () -> fire 10));
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 200)
       (fun () -> fire 32));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 2);
  checki "both completed" 2 (Harness.Recorder.completed env.recorder);
  checki "no corruption" 0
    (Sim.Counter.value
       (Sim.Counter.counter
          (Lauberhorn.Stack.counters env.stack)
          "response_corrupt"))

let test_stack_cold_start_uses_slow_path () =
  let env =
    make_stack
      ~services:[ echo_spec ~min_workers:0 ~max_workers:1 ~port:7000 ~id:1 () ]
      ()
  in
  checki "no workers yet" 0
    (Lauberhorn.Stack.active_workers env.stack ~service_id:1);
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 32 'c'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "completed despite cold start" 1
    (Harness.Recorder.completed env.recorder);
  let c name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters env.stack) name)
  in
  checki "cold path taken" 1 (c "cold_path");
  checki "kernel dispatch used" 1 (c "slow_path_dispatch");
  checki "worker activated" 1
    (Lauberhorn.Stack.active_workers env.stack ~service_id:1)

let test_stack_large_payload_dma_fallback () =
  let env = make_stack ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 16_384 'B'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "completed" 1 (Harness.Recorder.completed env.recorder);
  checkb "slower than small-rpc band" true
    (Sim.Histogram.max_value (Harness.Recorder.latencies env.recorder)
    > Sim.Units.us 3)

(* A large response is held on the NIC for its DMA while the small
   response behind it is collected at once; that frees a credit, the
   third request is staged into the large one's line, and the worker
   writes the third response into the same line image before the first
   is finished. The NIC must finish the large response from what it
   fetched: each reply answers its own request, with its own body. *)
let test_stack_held_response_survives_line_reuse () =
  let engine = Sim.Engine.create () in
  let replies = ref [] in
  let egress f =
    match Rpc.Wire_format.decode f.Net.Frame.payload with
    | Ok w ->
        replies :=
          (w.Rpc.Wire_format.rpc_id, Bytes.length w.Rpc.Wire_format.body)
          :: !replies
    | Error _ -> ()
  in
  let stack =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:2
      ~services:[ echo_spec ~port:7000 ~id:1 () ] ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  (* The small requests arrive while the large one is in the worker's
     hands, 10 us after it: its 64 KiB response then takes about 6 us
     of DMA after it is fetched, and the third response is written
     within 3 us of that fetch. *)
  let blob size = Rpc.Value.Blob (Bytes.make size 'b') in
  let sizes = [ (1, 65_536, 0); (2, 8, 10); (3, 8, 10) ] in
  List.iter
    (fun (n, size, after) ->
      ignore
        (Sim.Engine.schedule_at engine ~at:(Sim.Units.us (10 + after))
           (fun () ->
             Harness.Traffic.inject recorder driver ~rpc_id:n
               ~client:Harness.Traffic.default_client
               ~service_id:1 ~method_id:0 ~port:7000 (blob size))))
    sizes;
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  let ctr name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters stack) name)
  in
  checki "no orphan response" 0 (ctr "orphan_response");
  checki "no corrupt response" 0 (ctr "response_corrupt");
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "each reply answers its request with its own body"
    (List.map
       (fun (n, size, _) ->
         (n, Rpc.Codec.encoded_size (blob size)))
       sizes)
    (List.sort compare !replies)

(* Requests of 60 KiB, 2 KiB and 64 B arrive back to back with
   encryption on, so each frame's NIC pipeline (decrypt included) and
   each reply's transmit take times that grow with its size: the later,
   smaller frames overtake the larger ones, and pipeline and transmit
   slots are taken and released out of order. Service 1 is killed
   mid-run, so its dead-service NACKs are in flight beside service 2's
   replies. Each client sends from its own port. Every reply must go
   back to its own request's port with that request's id and body, and
   every NACK must name its own request. *)
(* The kill sweep NACKs the calls the dead process held in ascending
   rpc id order, whatever order the in-flight table keeps them in. Six
   workers each hold one slow call, whose ids arrive out of order, when
   the service is killed. *)
let test_stack_kill_nacks_in_id_order () =
  let engine = Sim.Engine.create () in
  let nacks = ref [] in
  let egress f =
    let p = f.Net.Frame.payload in
    match Rpc.Wire_format.kind p with
    | Rpc.Wire_format.Error_reply code
      when Int.equal code Rpc.Wire_format.err_dead ->
        nacks := Rpc.Wire_format.rpc_id p :: !nacks
    | _ -> ()
  in
  let slow =
    Rpc.Interface.service ~id:1 ~name:"slow"
      [
        Rpc.Interface.method_def ~id:0 ~name:"slow" ~request:Rpc.Schema.Blob
          ~response:Rpc.Schema.Blob ~handler_time:(Sim.Units.us 50) Fun.id;
      ]
  in
  let stack =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:8
      ~services:
        [ Lauberhorn.Stack.spec ~min_workers:6 ~max_workers:6 ~port:7000 slow ]
      ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  let ids = [ 4242; 17; 1 lsl 40; 905; 3; 77_777 ] in
  List.iteri
    (fun i id ->
      ignore
        (Sim.Engine.schedule_at engine
           ~at:(Sim.Units.us 10 + (i * Sim.Units.ns 100))
           (fun () ->
             Harness.Traffic.inject recorder driver ~rpc_id:id ~service_id:1
               ~client:Harness.Traffic.default_client
               ~method_id:0 ~port:7000 (Rpc.Value.Blob (Bytes.make 8 'k')))))
    ids;
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 20) (fun () ->
         Lauberhorn.Stack.kill_service stack ~service_id:1));
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  check
    Alcotest.(list int)
    "every held call NACKed, in ascending id order"
    (List.sort Int.compare ids) (List.rev !nacks)

(* In-flight slots across kills and restarts. Service 1's worker takes
   requests whose handler finishes on its own, long after its thread
   started it: "H<us>" finishes that many microseconds later. Each kill
   NACKs the hold in hand and the request staged on the worker's other
   CONTROL line, freeing their slots, and sends what still waits in
   the NIC to limbo. The first dead hold finishes while service 2's
   slow calls hold the freed slots; the second finishes while the
   worker's next thread holds a hold of its own, in the slot the dead
   thread once held. Neither dead thread may touch a slot or the
   request its worker holds now: every answer carries its own
   request's body, and every slot ends free. *)
let test_stack_slots_across_kill_restart () =
  let engine = Sim.Engine.create () in
  let answers = ref [] in
  let egress f =
    match Rpc.Wire_format.decode f.Net.Frame.payload with
    | Ok w -> answers := w :: !answers
    | Error e ->
        Alcotest.failf "undecodable frame: %a" Rpc.Wire_format.pp_error e
  in
  let hold =
    Rpc.Interface.service ~id:1 ~name:"hold"
      [
        Rpc.Interface.method_def ~id:0 ~name:"hold" ~request:Rpc.Schema.Blob
          ~response:Rpc.Schema.Blob
          ~nested:(fun ~call:_ v ~done_ ->
            match v with
            | Rpc.Value.Blob b when Bytes.length b = 4 && Bytes.get b 0 = 'H'
              ->
                let after =
                  Sim.Units.us (int_of_string (Bytes.sub_string b 1 3))
                in
                ignore (Sim.Engine.schedule_after engine ~after (fun () -> done_ v))
            | _ -> done_ v)
          Fun.id;
      ]
  in
  let slow =
    Rpc.Interface.service ~id:2 ~name:"slow"
      [
        Rpc.Interface.method_def ~id:0 ~name:"slow" ~request:Rpc.Schema.Blob
          ~response:Rpc.Schema.Blob ~handler_time:(Sim.Units.us 20) Fun.id;
      ]
  in
  let stack =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:4
      ~services:
        [
          Lauberhorn.Stack.spec ~port:7001 hold;
          Lauberhorn.Stack.spec ~port:7002 slow;
        ]
      ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  let sent = Hashtbl.create 32 in
  let send ~at id ~svc body =
    Hashtbl.replace sent id (svc, body);
    ignore
      (Sim.Engine.schedule_at engine ~at:(Sim.Units.us at) (fun () ->
           Harness.Traffic.inject recorder driver ~rpc_id:id ~service_id:svc
             ~client:Harness.Traffic.default_client
             ~method_id:0 ~port:(7000 + svc)
             (Rpc.Value.Blob (Bytes.of_string body))))
  in
  let at_us at f =
    ignore (Sim.Engine.schedule_at engine ~at:(Sim.Units.us at) f)
  in
  (* the first life: a hold, then four waiting *)
  send ~at:10 1 ~svc:1 "H040";
  List.iter (fun id -> send ~at:(10 + id) id ~svc:1 (Printf.sprintf "wait-%d" id))
    [ 2; 3; 4; 5 ];
  at_us 30 (fun () -> Lauberhorn.Stack.kill_service stack ~service_id:1);
  List.iter (fun id -> send ~at:(30 + id) id ~svc:2 (Printf.sprintf "slow-%d" id))
    [ 10; 11; 12 ];
  at_us 100 (fun () -> Lauberhorn.Stack.restart_service stack ~service_id:1);
  (* the second life: a hold, and one staged behind it *)
  send ~at:150 20 ~svc:1 "H150";
  send ~at:151 21 ~svc:1 "wait-21";
  at_us 200 (fun () -> Lauberhorn.Stack.kill_service stack ~service_id:1);
  at_us 230 (fun () -> Lauberhorn.Stack.restart_service stack ~service_id:1);
  (* the third life holds a request when the second's hold finishes *)
  send ~at:250 30 ~svc:1 "H100";
  List.iter
    (fun (id, svc) -> send ~at:(370 + id) id ~svc (Printf.sprintf "late-%d" id))
    [ (31, 1); (32, 2); (33, 1); (34, 2) ];
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  let nacked = ref [] in
  List.iter
    (fun w ->
      let id = w.Rpc.Wire_format.rpc_id in
      let svc, body =
        match Hashtbl.find_opt sent id with
        | Some s -> s
        | None -> Alcotest.failf "answer to rpc %d, never sent" id
      in
      let name = Printf.sprintf "rpc %d" id in
      checki (name ^ ": its own service") svc w.Rpc.Wire_format.service_id;
      match w.Rpc.Wire_format.kind with
      | Rpc.Wire_format.Response ->
          checkb (name ^ ": its own body") true
            (match Rpc.Codec.decode Rpc.Schema.Blob w.Rpc.Wire_format.body with
            | Ok (Rpc.Value.Blob b) -> String.equal (Bytes.to_string b) body
            | Ok _ | Error _ -> false)
      | Rpc.Wire_format.Error_reply code ->
          checki (name ^ ": a dead-service NACK") Rpc.Wire_format.err_dead code;
          nacked := id :: !nacked
      | Rpc.Wire_format.Request -> Alcotest.failf "%s: a request on egress" name)
    !answers;
  check
    Alcotest.(list int)
    "every request answered once"
    (List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) sent []))
    (List.sort Int.compare (List.map (fun w -> w.Rpc.Wire_format.rpc_id) !answers));
  check Alcotest.(list int) "the held and staged requests NACKed"
    [ 1; 2; 20; 21 ]
    (List.sort Int.compare !nacked);
  checki "waiting requests redelivered" 3
    (Obs.Metrics.counter_value (Lauberhorn.Stack.metrics stack) "requeues");
  checki "both dead threads' late results dropped" 2
    (Sim.Counter.value
       (Sim.Counter.counter (Lauberhorn.Stack.counters stack)
          "worker_stale_hand"));
  checki "every slot free" 0 (Lauberhorn.Stack.in_flight stack);
  checkb "slots were reused" true
    (Lauberhorn.Stack.slots_made stack < Hashtbl.length sent)

let test_stack_recycled_slots_keep_their_frames () =
  let engine = Sim.Engine.create () in
  let answers = ref [] in
  let egress f =
    match Rpc.Wire_format.decode f.Net.Frame.payload with
    | Ok w -> answers := (f.Net.Frame.dst.Net.Frame.port, w) :: !answers
    | Error e ->
        Alcotest.failf "undecodable frame: %a" Rpc.Wire_format.pp_error e
  in
  let cfg = Lauberhorn.Config.with_encryption Lauberhorn.Config.enzian true in
  let stack =
    Lauberhorn.Stack.create engine ~cfg ~ncores:4
      ~services:
        [
          echo_spec ~max_workers:2 ~port:7001 ~id:1 ();
          echo_spec ~max_workers:2 ~port:7002 ~id:2 ();
        ]
      ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  let sent = Hashtbl.create 64 in
  let client_port id = 40_000 + id in
  let send id ~svc size () =
    let body = Bytes.init size (fun i -> Char.chr (((id * 31) + i) land 0xff)) in
    Hashtbl.replace sent id (svc, body);
    Harness.Traffic.inject recorder driver ~rpc_id:id
      ~service_id:svc ~method_id:0 ~port:(7000 + svc)
      ~client:
        { (Harness.Traffic.client_endpoint ()) with
          Net.Frame.port = client_port id }
      (Rpc.Value.Blob body)
  in
  let sizes = [ 61_440; 2_048; 64 ] in
  let round_at r = Sim.Units.us (10 + (30 * r)) in
  for r = 0 to 7 do
    List.iteri
      (fun k (svc, size) ->
        let id = 1 + (r * 6) + k in
        ignore
          (Sim.Engine.schedule_at engine
             ~at:(round_at r + (k * Sim.Units.ns 50))
             (send id ~svc size)))
      (List.concat_map (fun svc -> List.map (fun size -> (svc, size)) sizes)
         [ 1; 2 ])
  done;
  ignore
    (Sim.Engine.schedule_at engine ~at:(round_at 4 + Sim.Units.us 1) (fun () ->
         Lauberhorn.Stack.kill_service stack ~service_id:1));
  Sim.Engine.run engine ~until:(Sim.Units.ms 5);
  let in_egress_order = List.rev !answers in
  let ids =
    List.map (fun (_, w) -> w.Rpc.Wire_format.rpc_id)
      in_egress_order
  in
  checki "no request answered twice" (List.length ids)
    (List.length (List.sort_uniq Int.compare ids));
  checkb "answers left out of request order" true
    (not (List.equal Int.equal ids (List.sort Int.compare ids)));
  let kinds = ref (0, 0) in
  List.iter
    (fun (dst_port, w) ->
      let id = w.Rpc.Wire_format.rpc_id in
      let svc, body =
        match Hashtbl.find_opt sent id with
        | Some s -> s
        | None -> Alcotest.failf "answer to rpc %d, never sent" id
      in
      let name = Printf.sprintf "rpc %d" id in
      checki (name ^ ": to its own client port") (client_port id) dst_port;
      checki (name ^ ": its own service") svc w.Rpc.Wire_format.service_id;
      checki (name ^ ": its own method") 0 w.Rpc.Wire_format.method_id;
      match w.Rpc.Wire_format.kind with
      | Rpc.Wire_format.Response ->
          let replies, nacks = !kinds in
          kinds := (replies + 1, nacks);
          checkb (name ^ ": its own body") true
            (match
               Rpc.Codec.decode Rpc.Schema.Blob w.Rpc.Wire_format.body
             with
            | Ok (Rpc.Value.Blob b) -> Bytes.equal b body
            | Ok _ | Error _ -> false)
      | Rpc.Wire_format.Error_reply code ->
          let replies, nacks = !kinds in
          kinds := (replies, nacks + 1);
          checki (name ^ ": a dead-service NACK") Rpc.Wire_format.err_dead
            code;
          checki (name ^ ": NACKs only the killed service") 1 svc;
          checki (name ^ ": an empty NACK body") 0
            (Bytes.length w.Rpc.Wire_format.body)
      | Rpc.Wire_format.Request -> Alcotest.failf "%s: a request on egress" name)
    in_egress_order;
  let replies, nacks = !kinds in
  checkb "NACKs were sent" true (nacks > 0);
  checkb "service 1 replied before the kill" true (replies > 24);
  let svc2 =
    List.filter
      (fun (_, w) ->
        Int.equal w.Rpc.Wire_format.service_id 2
        && w.Rpc.Wire_format.kind = Rpc.Wire_format.Response)
      in_egress_order
  in
  checki "service 2 answered every request" 24 (List.length svc2);
  let is_nack (_, w) =
    match w.Rpc.Wire_format.kind with
    | Rpc.Wire_format.Error_reply _ -> true
    | Rpc.Wire_format.Response | Rpc.Wire_format.Request -> false
  in
  (* After the first NACK, some reply, and after it another NACK. *)
  let rec after_nack = function
    | [] -> []
    | a :: rest -> if is_nack a then rest else after_nack rest
  in
  let rec reply_then_nack = function
    | [] -> false
    | a :: rest -> if is_nack a then reply_then_nack rest else List.exists is_nack rest
  in
  checkb "a reply leaves between two NACKs" true
    (reply_then_nack (after_nack in_egress_order));
  let counter name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters stack) name)
  in
  checki "no corrupt response" 0 (counter "response_corrupt");
  checki "every answer was transmitted" (List.length ids) (counter "tx_frames")

(* A reply's header is written into the room its worker left in front
   of the encoded result, sized by the trace context known then. A
   context noted after the result was encoded (here from the handled
   hook, between the worker's finish and the response's collection) no
   longer fits that room: the body is copied behind a header that holds
   the context, and the reply still carries its own id and body. *)
let test_stack_late_context_reaches_the_reply () =
  let engine = Sim.Engine.create () in
  let tracer = Obs.Tracer.create () in
  Obs.Tracer.enable tracer;
  let frames = ref [] in
  let stack =
    Lauberhorn.Stack.create engine ~tracer ~cfg:Lauberhorn.Config.enzian
      ~ncores:2 ~services:[ echo_spec ~port:7000 ~id:1 () ]
      ~egress:(fun f -> frames := f :: !frames)
      ()
  in
  let ctx = Bytes.make Rpc.Wire_format.ctx_size 'c' in
  Lauberhorn.Stack.on_handled stack (fun () ->
      Obs.Tracer.set_context tracer ~rpc:7 ctx);
  let body = Bytes.of_string "late context" in
  let recorder = Harness.Recorder.create engine in
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 10) (fun () ->
         Harness.Traffic.inject recorder (Lauberhorn.Stack.driver stack)
           ~client:Harness.Traffic.default_client
           ~rpc_id:7 ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob body)));
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  match !frames with
  | [ f ] -> (
      match Rpc.Wire_format.decode f.Net.Frame.payload with
      | Ok w ->
          check Alcotest.int "its own id" 7 w.Rpc.Wire_format.rpc_id;
          checkb "a response" true
            (w.Rpc.Wire_format.kind = Rpc.Wire_format.Response);
          checkb "the late context" true
            (Option.equal Bytes.equal w.Rpc.Wire_format.ctx (Some ctx));
          checkb "its own body" true
            (Bytes.equal w.Rpc.Wire_format.body
               (Rpc.Codec.encode (Rpc.Value.Blob body)))
      | Error e -> Alcotest.failf "reply: %a" Rpc.Wire_format.pp_error e)
  | fs -> Alcotest.failf "%d frames on egress, expected 1" (List.length fs)

let test_stack_scale_up_under_burst () =
  let env =
    make_stack
      ~services:
        [ echo_spec ~min_workers:1 ~max_workers:3 ~port:7000 ~id:1 () ]
      ~ncores:4 ()
  in
  (* A dense burst: handler 500ns but arrivals every 100ns for a while
     forces queueing past the watermark. *)
  for i = 1 to 100 do
    ignore
      (Sim.Engine.schedule_at env.sengine
         ~at:(Sim.Units.us 10 + (i * 100))
         (fun () ->
           Harness.Traffic.inject env.recorder env.driver
             ~client:Harness.Traffic.default_client
             ~rpc_id:i ~service_id:1 ~method_id:0 ~port:7000
             (Rpc.Value.Blob (Bytes.make 16 'x'))))
  done;
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 10);
  checki "all completed" 100 (Harness.Recorder.completed env.recorder);
  checkb "scaled past one worker" true
    (Sim.Counter.value
       (Sim.Counter.counter
          (Lauberhorn.Stack.counters env.stack)
          "worker_activate")
    >= 1)

let test_stack_many_services_share_cores () =
  let setup = Workload.Scenario.echo_fleet ~n:16 () in
  let services =
    List.mapi
      (fun i def ->
        Lauberhorn.Stack.spec ~min_workers:0 ~max_workers:1
          ~port:setup.Workload.Scenario.ports.(i) def)
      setup.Workload.Scenario.defs
  in
  let env = make_stack ~services ~ncores:4 () in
  let rng = Sim.Rng.create ~seed:11 in
  for i = 1 to 200 do
    let svc = Sim.Rng.int rng ~bound:16 in
    ignore
      (Sim.Engine.schedule_at env.sengine
         ~at:(Sim.Units.us 10 + (i * Sim.Units.us 2))
         (fun () ->
           Harness.Traffic.inject env.recorder env.driver
             ~client:Harness.Traffic.default_client
             ~rpc_id:i
             ~service_id:(Workload.Scenario.service_id_of setup ~service_idx:svc)
             ~method_id:0
             ~port:(Workload.Scenario.port_of setup ~service_idx:svc)
             (Rpc.Value.Blob (Bytes.make 32 'm'))))
  done;
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 20);
  checki "16 services on 4 cores all served" 200
    (Harness.Recorder.completed env.recorder)

let test_stack_nested_rpc () =
  (* A frontend service whose handler makes a nested call into the kv
     service (paper section 6), all server-side. *)
  let kv = Rpc.Interface.kv_service ~id:2 () in
  let frontend =
    Rpc.Interface.service ~id:10 ~name:"frontend"
      [
        Rpc.Interface.method_def ~id:0 ~name:"fetch" ~request:Rpc.Schema.Str
          ~response:Rpc.Schema.Blob ~handler_time:(Sim.Units.ns 600)
          ~nested:(fun ~call v ~done_ ->
            call ~service_id:2 ~method_id:0 v (fun kv_reply ->
                match kv_reply with
                | Rpc.Value.Tuple [ Rpc.Value.Bool true; Rpc.Value.Blob b ]
                  ->
                    done_ (Rpc.Value.Blob (Bytes.cat (Bytes.of_string "hit:") b))
                | _ -> done_ (Rpc.Value.Blob (Bytes.of_string "miss"))))
          (fun _ -> Rpc.Value.Blob (Bytes.of_string "unused-fallback"));
      ]
  in
  let env =
    make_stack
      ~services:
        [
          Lauberhorn.Stack.spec ~port:7010 frontend;
          Lauberhorn.Stack.spec ~port:7002 kv;
        ]
      ()
  in
  (* Seed the kv store directly (handler state is shared). *)
  let put = Option.get (Rpc.Interface.find_method kv 1) in
  ignore
    (put.Rpc.Interface.execute
       (Rpc.Value.Tuple
          [ Rpc.Value.str "k1"; Rpc.Value.Blob (Bytes.of_string "V") ]));
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:5
           ~client:Harness.Traffic.default_client
           ~service_id:10 ~method_id:0 ~port:7010 (Rpc.Value.str "k1")));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "outer completed" 1 (Harness.Recorder.completed env.recorder);
  let c name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters env.stack) name)
  in
  checki "one nested call" 1 (c "nested_calls");
  (* Outer + nested both handled. *)
  checki "two rpcs handled" 2 (c "rpcs_handled");
  (* Outer latency includes the nested round trip. *)
  checkb "outer latency > single-rpc band" true
    (Sim.Histogram.max_value (Harness.Recorder.latencies env.recorder)
    > Sim.Units.us 4)

let test_stack_nested_unknown_service () =
  let frontend =
    Rpc.Interface.service ~id:11 ~name:"fe"
      [
        Rpc.Interface.method_def ~id:0 ~name:"f" ~request:Rpc.Schema.Unit
          ~response:Rpc.Schema.Bool
          ~nested:(fun ~call _ ~done_ ->
            call ~service_id:999 ~method_id:0 Rpc.Value.Unit (fun reply ->
                done_ (Rpc.Value.Bool (reply = Rpc.Value.Unit))))
          (fun _ -> Rpc.Value.Bool false);
      ]
  in
  let env =
    make_stack ~services:[ Lauberhorn.Stack.spec ~port:7011 frontend ] ()
  in
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1
           ~client:Harness.Traffic.default_client
           ~service_id:11 ~method_id:0 ~port:7011 Rpc.Value.Unit));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "completed with fallback reply" 1
    (Harness.Recorder.completed env.recorder)

let test_stack_retire_and_resume_dispatcher () =
  let env =
    make_stack
      ~services:[ echo_spec ~min_workers:0 ~max_workers:1 ~port:7000 ~id:1 () ]
      ()
  in
  checki "two dispatchers" 2 (Lauberhorn.Stack.dispatcher_count env.stack);
  let retired = ref false in
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 50)
       (fun () ->
         retired := Lauberhorn.Stack.retire_dispatcher env.stack ~idx:0));
  (* A cold request after the retirement: dispatcher 1 must cover. *)
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 200)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 16 'r'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 2);
  checkb "retire accepted" true !retired;
  checki "retired counter" 1
    (Sim.Counter.value
       (Sim.Counter.counter
          (Lauberhorn.Stack.counters env.stack)
          "dispatcher_retired"));
  checki "request still served" 1 (Harness.Recorder.completed env.recorder);
  (* Resume dispatcher 0 and use it again. *)
  Lauberhorn.Stack.resume_dispatcher env.stack ~idx:0;
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:2
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 16 's'))));
  Sim.Engine.run env.sengine ~until:(Sim.Engine.now env.sengine + Sim.Units.ms 20);
  checki "serves after resume" 2 (Harness.Recorder.completed env.recorder)

let test_tx_endpoint_backpressure () =
  let engine = Sim.Engine.create () in
  let ha =
    Coherence.Home_agent.create engine Coherence.Interconnect.eci
      ~timeout:(Sim.Units.ms 15) ()
  in
  let consumed = ref [] in
  let tx =
    Lauberhorn.Tx_endpoint.create ha Lauberhorn.Config.enzian
      ~on_line:(fun b -> consumed := Bytes.to_string b :: !consumed)
      ()
  in
  let image tag = Bytes.make 128 tag in
  let accepted = ref 0 in
  (* Three sends: two credits, so the third waits for a drain. *)
  Lauberhorn.Tx_endpoint.cpu_send tx (image 'a') ~accepted:(fun () ->
      incr accepted);
  Lauberhorn.Tx_endpoint.cpu_send tx (image 'b') ~accepted:(fun () ->
      incr accepted);
  Lauberhorn.Tx_endpoint.cpu_send tx (image 'c') ~accepted:(fun () ->
      incr accepted);
  checki "two accepted immediately" 2 !accepted;
  checki "one stalled" 1 (Lauberhorn.Tx_endpoint.backpressure_stalls tx);
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  checki "all accepted eventually" 3 !accepted;
  checki "all consumed" 3 (List.length !consumed);
  check
    (Alcotest.list Alcotest.char)
    "fifo order" [ 'a'; 'b'; 'c' ]
    (List.rev_map (fun s -> s.[0]) !consumed);
  checki "drained" 0 (Lauberhorn.Tx_endpoint.in_flight tx);
  checkb "oversized rejected" true
    (try
       Lauberhorn.Tx_endpoint.cpu_send tx (Bytes.make 256 'x')
         ~accepted:(fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_stack_nested_uses_tx_lines () =
  (* Small nested calls must flow through the worker's TX CONTROL
     lines, not the fallback frame path. *)
  let kv = Rpc.Interface.kv_service ~id:2 () in
  let frontend =
    Rpc.Interface.service ~id:10 ~name:"fe"
      [
        Rpc.Interface.method_def ~id:0 ~name:"probe" ~request:Rpc.Schema.Str
          ~response:Rpc.Schema.Bool
          ~nested:(fun ~call v ~done_ ->
            call ~service_id:2 ~method_id:0 v (fun _ ->
                done_ (Rpc.Value.Bool true)))
          (fun _ -> Rpc.Value.Bool false);
      ]
  in
  let env =
    make_stack
      ~services:
        [
          Lauberhorn.Stack.spec ~port:7010 frontend;
          Lauberhorn.Stack.spec ~port:7002 kv;
        ]
      ()
  in
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1
           ~client:Harness.Traffic.default_client
           ~service_id:10 ~method_id:0 ~port:7010 (Rpc.Value.str "k")));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "completed" 1 (Harness.Recorder.completed env.recorder);
  let c name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters env.stack) name)
  in
  checki "went via TX lines" 1 (c "tx_line_sends")

let test_stack_cross_machine_nested () =
  (* Two stacks on one engine: A's frontend nests into B's kv over a
     direct (zero-latency) inter-machine link. *)
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let a_ip = Net.Ip_addr.of_string "10.0.0.10" in
  let b_ip = Net.Ip_addr.of_string "10.0.0.11" in
  let a_addr =
    { Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0a";
      ip = a_ip; port = 0 }
  in
  let b_addr =
    { Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0b";
      ip = b_ip; port = 0 }
  in
  let a_ref = ref None in
  let kv = Rpc.Interface.kv_service ~id:2 () in
  let b =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:2
      ~services:[ Lauberhorn.Stack.spec ~port:7002 kv ]
      ~egress:(fun f ->
        (* Replies from B go back to A's NIC. *)
        match !a_ref with
        | Some a -> Lauberhorn.Stack.ingress a f
        | None -> ())
      ()
  in
  Lauberhorn.Stack.set_address b b_addr;
  let frontend =
    Rpc.Interface.service ~id:4 ~name:"fe"
      [
        Rpc.Interface.method_def ~id:0 ~name:"probe" ~request:Rpc.Schema.Str
          ~response:Rpc.Schema.Bool
          ~nested:(fun ~call v ~done_ ->
            call ~service_id:2 ~method_id:0 v (fun reply ->
                match reply with
                | Rpc.Value.Tuple [ Rpc.Value.Bool found; _ ] ->
                    done_ (Rpc.Value.Bool found)
                | _ -> done_ (Rpc.Value.Bool false)))
          (fun _ -> Rpc.Value.Bool false);
      ]
  in
  let a =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:2
      ~services:[ Lauberhorn.Stack.spec ~port:7100 frontend ]
      ~egress:(fun f ->
        if Net.Ip_addr.equal f.Net.Frame.dst.Net.Frame.ip b_ip then
          Lauberhorn.Stack.ingress b f
        else Harness.Recorder.egress recorder f)
      ()
  in
  Lauberhorn.Stack.set_address a a_addr;
  Lauberhorn.Stack.add_remote_service a ~service_id:2
    ~server:{ b_addr with Net.Frame.port = 7002 }
    ~response_schema:(Rpc.Schema.Tuple [ Rpc.Schema.Bool; Rpc.Schema.Blob ]);
  a_ref := Some a;
  (* Seed B's kv so the probe finds the key. *)
  let put = Option.get (Rpc.Interface.find_method kv 1) in
  ignore
    (put.Rpc.Interface.execute
       (Rpc.Value.Tuple
          [ Rpc.Value.str "k"; Rpc.Value.Blob (Bytes.of_string "v") ]));
  let driver = Lauberhorn.Stack.driver a in
  ignore
    (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
         Harness.Traffic.inject recorder driver ~rpc_id:1 ~service_id:4
           ~client:Harness.Traffic.default_client
           ~method_id:0 ~port:7100 (Rpc.Value.str "k")));
  Sim.Engine.run engine ~until:(Sim.Units.ms 5);
  checki "outer completed" 1 (Harness.Recorder.completed recorder);
  let ca name =
    Sim.Counter.value (Sim.Counter.counter (Lauberhorn.Stack.counters a) name)
  in
  checki "remote send" 1 (ca "nested_remote_sends");
  checki "remote reply" 1 (ca "nested_remote_replies");
  let cb name =
    Sim.Counter.value (Sim.Counter.counter (Lauberhorn.Stack.counters b) name)
  in
  checki "b handled the nested rpc" 1 (cb "rpcs_handled");
  (* Routing a remote id for a local service must be rejected. *)
  checkb "local service rejected" true
    (try
       Lauberhorn.Stack.add_remote_service a ~service_id:4
         ~server:{ b_addr with Net.Frame.port = 1 }
         ~response_schema:Rpc.Schema.Unit;
       false
     with Invalid_argument _ -> true)

let test_stack_telemetry () =
  let env =
    make_stack
      ~services:
        [ echo_spec ~min_workers:1 ~max_workers:1 ~port:7000 ~id:1 () ]
      ()
  in
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at env.sengine
         ~at:(Sim.Units.us 10 + (i * Sim.Units.us 5))
         (fun () ->
           Harness.Traffic.inject env.recorder env.driver
             ~client:Harness.Traffic.default_client
             ~rpc_id:i ~service_id:1 ~method_id:0 ~port:7000
             (Rpc.Value.Blob (Bytes.make 48 't'))))
  done;
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  let st = Lauberhorn.Stack.service_stats env.stack ~service_id:1 in
  let h = st.Lauberhorn.Stack.latency in
  checki "all recorded" 50 (Sim.Histogram.count h);
  checki "paths sum" 50
    (st.Lauberhorn.Stack.fast + st.Lauberhorn.Stack.queued
   + st.Lauberhorn.Stack.cold);
  checkb "mostly fast" true (st.Lauberhorn.Stack.fast > 25);
  checkb "bytes tracked" true
    (st.Lauberhorn.Stack.bytes_in > 0 && st.Lauberhorn.Stack.bytes_out > 0);
  checkb "unknown service rejected" true
    (try
       ignore (Lauberhorn.Stack.service_stats env.stack ~service_id:9);
       false
     with Invalid_argument _ -> true);
  (* The NIC-side latency must agree with the client-observed latency
     up to the TX MAC delay. *)
  let nic_p50 = Sim.Histogram.quantile h 0.5 in
  let client_p50 =
    Sim.Histogram.quantile (Harness.Recorder.latencies env.recorder) 0.5
  in
  checkb "nic view close to client view" true
    (abs (client_p50 - nic_p50) < Sim.Units.us 1)

(* The per-service statistics and the stack-wide counters count the
   same RPCs: on a fault-free, drained run with no nested calls, the
   per-service fast/queued/cold sums equal the stack's path counters,
   and the per-service latency counts sum to every handled RPC. *)
let test_stack_stats_agree_with_counters () =
  let ids = [ 1; 2; 3 ] in
  let env =
    make_stack
      ~cfg:
        (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
           (Sim.Units.us 100))
      ~ncores:4
      ~services:
        (List.map
           (fun id ->
             echo_spec ~min_workers:0 ~max_workers:2 ~port:(7000 + id) ~id ())
           ids)
      ()
  in
  let rng = Sim.Rng.create ~seed:5 in
  Workload.Arrivals.open_loop env.sengine rng ~rate_per_s:400_000.
    ~until:(Sim.Units.ms 2) (fun ~seq ->
      let id = 1 + Sim.Rng.int rng ~bound:3 in
      Harness.Traffic.inject env.recorder env.driver ~rpc_id:seq
        ~client:Harness.Traffic.default_client
        ~service_id:id ~method_id:0 ~port:(7000 + id)
        (Rpc.Value.Blob (Bytes.make 32 's')));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 20);
  let c name =
    Sim.Counter.value
      (Sim.Counter.counter (Lauberhorn.Stack.counters env.stack) name)
  in
  let sum f =
    List.fold_left
      (fun acc id ->
        acc + f (Lauberhorn.Stack.service_stats env.stack ~service_id:id))
      0 ids
  in
  let completed = Harness.Recorder.completed env.recorder in
  checki "drained" (Harness.Recorder.sent env.recorder) completed;
  checkb "every path taken" true
    (c "fast_path" > 0 && c "queued_path" > 0 && c "cold_path" > 0);
  checki "fast" (c "fast_path") (sum (fun s -> s.Lauberhorn.Stack.fast));
  checki "queued" (c "queued_path") (sum (fun s -> s.Lauberhorn.Stack.queued));
  checki "cold" (c "cold_path") (sum (fun s -> s.Lauberhorn.Stack.cold));
  let recorded =
    sum (fun s -> Sim.Histogram.count s.Lauberhorn.Stack.latency)
  in
  checki "latency counts = rpcs_handled" (c "rpcs_handled") recorded;
  checki "rpcs_handled = completed" completed (c "rpcs_handled")

let test_stack_tracing () =
  (* Paper section 6: the NIC sees arrival and response, so the stack's
     tracer decomposes the end-system latency into its stage chain. *)
  let env = make_stack ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  let tracer = Lauberhorn.Stack.tracer env.stack in
  Obs.Tracer.enable tracer;
  let latency = ref None in
  Harness.Recorder.on_complete env.recorder (fun ~rpc_id:_ ~latency:l ->
      latency := Some l);
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:9
           ~client:Harness.Traffic.default_client
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 24 'z'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 2);
  let chain = Obs.Tracer.stages_of tracer ~rpc:9 in
  check
    (Alcotest.list Alcotest.string)
    "rx to tx stage chain"
    [ "mac"; "nic_pipeline"; "queue"; "handler"; "collect"; "tx" ]
    (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) chain);
  check (Alcotest.option Alcotest.int) "stages sum to the measured latency"
    !latency
    (Some (List.fold_left (fun acc s -> acc + Obs.Span.duration s) 0 chain))

let test_stack_tryagain_idle_traffic () =
  (* An idle stack parks its workers; with a 1 ms timeout and a 50 ms
     run, each parked line sees ~50 TRYAGAIN fills, not thousands:
     the no-spin claim (E5). *)
  let cfg =
    Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian (Sim.Units.ms 1)
  in
  let env = make_stack ~cfg ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 50);
  let tries =
    Coherence.Home_agent.tryagains (Lauberhorn.Stack.home_agent env.stack)
  in
  checkb "tryagains bounded" true (tries > 10 && tries < 500)

let test_stack_kill_restart_lifecycle () =
  let env = make_stack ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  let inject n at =
    ignore
      (Sim.Engine.schedule_after env.sengine ~after:at (fun () ->
           Harness.Traffic.inject env.recorder env.driver
             ~client:Harness.Traffic.default_client
             ~rpc_id:n ~service_id:1 ~method_id:0 ~port:7000
             (Rpc.Value.Blob (Bytes.of_string "x"))))
  in
  inject 1 (Sim.Units.us 10);
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 100)
       (fun () -> Lauberhorn.Stack.kill_service env.stack ~service_id:1));
  (* Arrives well after the death push landed: refused on the wire. *)
  inject 2 (Sim.Units.us 300);
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 500)
       (fun () -> Lauberhorn.Stack.restart_service env.stack ~service_id:1));
  inject 3 (Sim.Units.us 800);
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  (* All three got a wire answer — the dead-window arrival an err_dead
     NACK rather than silence (the recorder counts error replies as
     completions: a response was produced). *)
  checki "every arrival answered on the wire" 3
    (Harness.Recorder.completed env.recorder);
  let mv name =
    Obs.Metrics.counter_value (Lauberhorn.Stack.metrics env.stack) name
  in
  checki "kill counted" 1 (mv "kills");
  checki "respawn counted" 1 (mv "respawns");
  checki "dead-window arrival refused" 1 (mv "crash_nacks")

(* The code pointer the NIC stages for a fresh stack's first request.
   The service keeps no resident worker and both kernel dispatchers are
   retired, so nothing wakes a worker: the request stays staged on its
   CONTROL line, and the test loads every staged line itself. *)
let first_staged_code_ptr () =
  let env =
    make_stack
      ~services:[ echo_spec ~min_workers:0 ~max_workers:1 ~port:7000 ~id:1 () ]
      ()
  in
  let ha = Lauberhorn.Stack.home_agent env.stack in
  Sim.Engine.run env.sengine ~until:(Sim.Units.us 10);
  for idx = 0 to Lauberhorn.Stack.dispatcher_count env.stack - 1 do
    checkb "dispatcher retired" true
      (Lauberhorn.Stack.retire_dispatcher env.stack ~idx)
  done;
  Sim.Engine.run env.sengine ~until:(Sim.Units.us 20);
  Harness.Traffic.inject env.recorder env.driver ~rpc_id:1 ~service_id:1
    ~client:Harness.Traffic.default_client
    ~method_id:0 ~port:7000
    (Rpc.Value.Blob (Bytes.of_string "x"));
  Sim.Engine.run env.sengine ~until:(Sim.Units.us 40);
  let rec requests id acc =
    match Coherence.Home_agent.stage_pending ha id with
    | exception Invalid_argument _ -> acc
    | false -> requests (id + 1) acc
    | true ->
        let fill = ref None in
        Coherence.Home_agent.cpu_load ha id (fun f -> fill := Some f);
        while Option.is_none !fill && Sim.Engine.step env.sengine do () done;
        let acc =
          match !fill with
          | Some (Coherence.Home_agent.Data b) -> (
              match Lauberhorn.Message.decode b with
              | Ok (Lauberhorn.Message.Request r) -> r :: acc
              | Ok _ | Error _ -> acc)
          | Some Coherence.Home_agent.Tryagain | None -> acc
        in
        requests (id + 1) acc
  in
  match requests 0 [] with
  | [ r ] ->
      checki "service" 1 r.Lauberhorn.Message.service_id;
      r.Lauberhorn.Message.code_ptr
  | rs -> Alcotest.failf "%d staged requests, expected 1" (List.length rs)

let test_stack_code_ptrs_per_stack () =
  (* Code pointers derive from the service's process id, so a stack's
     do not depend on what the process built before it. *)
  let a = first_staged_code_ptr () in
  let b = first_staged_code_ptr () in
  check Alcotest.int64 "same code pointer" a b

let test_stack_reply_echoes_method_id () =
  (* Clients pick the response schema by (service, method): a reply to
     kv method 1 must say method 1, or its Unit body is decoded with
     method 0's schema and the call fails. *)
  let engine = Sim.Engine.create () in
  let client = ref None in
  let stack =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:2
      ~services:
        [ Lauberhorn.Stack.spec ~port:7002 (Rpc.Interface.kv_service ~id:2 ()) ]
      ~egress:(fun f ->
        Option.iter (fun c -> Harness.Client.on_reply c f) !client)
      ()
  in
  let c =
    Harness.Client.create engine ~send:(Lauberhorn.Stack.ingress stack) ()
  in
  client := Some c;
  Harness.Client.expect c ~service_id:2 ~method_id:0
    (Rpc.Schema.Tuple [ Rpc.Schema.Bool; Rpc.Schema.Blob ]);
  Harness.Client.expect c ~service_id:2 ~method_id:1 Rpc.Schema.Unit;
  let got = ref None in
  Harness.Client.call c ~service_id:2 ~method_id:1 ~port:7002
    (Rpc.Value.Tuple
       [ Rpc.Value.str "k"; Rpc.Value.Blob (Bytes.of_string "v") ])
    (fun _ ->
      Harness.Client.call c ~service_id:2 ~method_id:0 ~port:7002
        (Rpc.Value.str "k") (fun v -> got := Some v));
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  checki "both calls completed" 2 (Harness.Client.completed c);
  checki "no decode errors" 0 (Harness.Client.errors c);
  checkb "get sees the put" true
    (match !got with
    | Some (Rpc.Value.Tuple [ Rpc.Value.Bool true; Rpc.Value.Blob b ]) ->
        Bytes.equal b (Bytes.of_string "v")
    | Some _ | None -> false)

(* The ccnic-static ablation with a request in the worker's hands at a
   kill: two services pinned to one core, 40 arrivals served, then one
   arrival just before the kill (held by the slow worker) and one just
   after it. Returns the stack, the kill instant and every reply as
   (rpc_id, kind, sent_at). *)
let run_static_kill ?fault () =
  let engine = Sim.Engine.create () in
  let replies = ref [] in
  let egress f =
    match Rpc.Wire_format.decode f.Net.Frame.payload with
    | Ok w ->
        replies :=
          (w.Rpc.Wire_format.rpc_id, w.Rpc.Wire_format.kind,
           Sim.Engine.now engine)
          :: !replies
    | Error _ -> ()
  in
  (* Service 1's handler is slow enough that a request is in the
     worker's hands at the kill. *)
  let slow =
    Rpc.Interface.service ~id:1 ~name:"slow"
      [
        Rpc.Interface.method_def ~id:0 ~name:"echo" ~request:Rpc.Schema.Blob
          ~response:Rpc.Schema.Blob ~handler_time:(Sim.Units.us 20) Fun.id;
      ]
  in
  let stack =
    Lauberhorn.Stack.create engine ~binding:Lauberhorn.Stack.Static ?fault
      ~cfg:Lauberhorn.Config.enzian ~ncores:1
      ~services:
        [ Lauberhorn.Stack.spec ~port:7000 slow; echo_spec ~port:7001 ~id:2 () ]
      ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  let inject n ~svc =
    Harness.Traffic.inject recorder driver ~rpc_id:n
      ~client:Harness.Traffic.default_client
      ~service_id:svc ~method_id:0 ~port:(6999 + svc)
      (Rpc.Value.Blob (Bytes.of_string "x"))
  in
  for i = 1 to 40 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(i * Sim.Units.us 5) (fun () ->
           inject i ~svc:(1 + (i mod 2))))
  done;
  let kill_at = Sim.Units.ms 1 in
  ignore
    (Sim.Engine.schedule_at engine ~at:(kill_at - Sim.Units.us 5) (fun () ->
         inject 99 ~svc:1));
  ignore
    (Sim.Engine.schedule_at engine ~at:kill_at (fun () ->
         Lauberhorn.Stack.kill_service stack ~service_id:1;
         inject 100 ~svc:1));
  Sim.Engine.run engine ~until:(Sim.Units.ms 3);
  (stack, kill_at, !replies)

let stack_metric stack name =
  Obs.Metrics.counter_value (Lauberhorn.Stack.metrics stack) name

(* A request staged just before a kill stays in flight across the
   kill and the restart: every coherence fill is held 100 us on the
   interconnect, and the death push resets the worker's lines long
   before that. The restarted worker parks on line 0, and the next
   request is written into line 0's image while the first is still on
   its way. The stale fill must then land with the bytes it left with:
   it names an RPC the sweep already NACKed, so the worker drops it as
   an orphan, and the new request is handled once, from its own fill.
   Had the reset kept the old images, the stale fill would carry the
   new request, and nothing would be counted as an orphan. *)
let test_stack_stale_fill_keeps_its_bytes () =
  let engine = Sim.Engine.create () in
  let replies = ref [] in
  let egress f =
    match Rpc.Wire_format.decode f.Net.Frame.payload with
    | Ok w ->
        replies :=
          (w.Rpc.Wire_format.rpc_id, w.Rpc.Wire_format.kind) :: !replies
    | Error _ -> ()
  in
  let fault =
    Fault.Plan.make ~fill_delay:1.0 ~fill_delay_ns:(Sim.Units.us 100) ()
  in
  let stack =
    Lauberhorn.Stack.create engine ~fault ~cfg:Lauberhorn.Config.enzian
      ~ncores:2 ~services:[ echo_spec ~port:7000 ~id:1 () ] ~egress ()
  in
  let driver = Lauberhorn.Stack.driver stack in
  let recorder = Harness.Recorder.create engine in
  let at t f = ignore (Sim.Engine.schedule_at engine ~at:t f) in
  let inject n () =
    Harness.Traffic.inject recorder driver ~rpc_id:n
      ~client:Harness.Traffic.default_client
      ~service_id:1 ~method_id:0 ~port:7000
      (Rpc.Value.Blob (Bytes.of_string "x"))
  in
  at (Sim.Units.us 10) (inject 1);
  at (Sim.Units.us 20) (fun () ->
      Lauberhorn.Stack.kill_service stack ~service_id:1);
  at (Sim.Units.us 40) (fun () ->
      Lauberhorn.Stack.restart_service stack ~service_id:1);
  at (Sim.Units.us 60) (inject 2);
  Sim.Engine.run engine ~until:(Sim.Units.ms 2);
  let ctrs = Sim.Counter.to_list (Lauberhorn.Stack.counters stack) in
  let ctr name = Option.value ~default:0 (List.assoc_opt name ctrs) in
  checki "the stale fill is one orphan" 1 (ctr "worker_orphan_request");
  checki "one request handled" 1 (ctr "rpcs_handled");
  checki "the staged request was NACKed" 1
    (stack_metric stack "stale_dispatch_caught");
  let reply_kinds id =
    List.filter_map
      (fun (rid, kind) -> if Int.equal rid id then Some kind else None)
      !replies
  in
  checkb "rpc 1: one err_dead NACK" true
    (match reply_kinds 1 with
    | [ Rpc.Wire_format.Error_reply code ] ->
        Int.equal code Rpc.Wire_format.err_dead
    | _ -> false);
  checkb "rpc 2: one response" true
    (match reply_kinds 2 with
    | [ Rpc.Wire_format.Response ] -> true
    | _ -> false)

let test_stack_static_binding () =
  (* The ccnic-static ablation: no OS channel, no kicks, no mirror. *)
  checkb "max_workers = 2 rejected" true
    (match
       Lauberhorn.Stack.create (Sim.Engine.create ())
         ~binding:Lauberhorn.Stack.Static ~cfg:Lauberhorn.Config.enzian
         ~ncores:1
         ~services:[ echo_spec ~max_workers:2 ~port:7000 ~id:1 () ]
         ~egress:ignore ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let stack, kill_at, replies = run_static_kill () in
  checki "no dispatcher threads" 0 (Lauberhorn.Stack.dispatcher_count stack);
  checkb "no mirror" true (Option.is_none (Lauberhorn.Stack.mirror stack));
  checkb "driver keeps the ablation's name" true
    (String.equal (Lauberhorn.Stack.driver stack).Harness.Driver.name
       "ccnic-static");
  let ctrs = Sim.Counter.to_list (Lauberhorn.Stack.counters stack) in
  checki "all served before the kill" 40
    (match List.assoc_opt "rpcs_handled" ctrs with Some n -> n | None -> 0);
  checkb "no preempt kick" true
    (Option.is_none (List.assoc_opt "preempt_kick" ctrs));
  checkb "no park self-kick" true
    (Option.is_none (List.assoc_opt "park_self_kick" ctrs));
  (* No stale window: the kill sweeps the request the dead worker held,
     and the arrival right after it is refused by the dispatch check;
     both get err_dead within a transmit delay of the kill. *)
  let nacked_at_once id =
    match
      List.find_opt (fun (rid, _, _) -> Int.equal rid id) replies
    with
    | Some (_, Rpc.Wire_format.Error_reply code, at) ->
        Int.equal code Rpc.Wire_format.err_dead
        && at - kill_at < Sim.Units.us 2
    | Some _ | None -> false
  in
  checkb "held request NACKed at the kill" true (nacked_at_once 99);
  checkb "dead-window arrival NACKed at once" true (nacked_at_once 100);
  checki "swept at the kill" 1 (stack_metric stack "stale_dispatch_caught");
  checki "refused at dispatch" 1 (stack_metric stack "crash_nacks")

let test_stack_static_binding_fault_plan () =
  (* The wire link is never driven in this harness-free run, so a plan
     that only faults the wire leaves the scenario fault-free: the held
     request is counted once, and every event lands on the same
     counters, once, as without the plan. *)
  let fault = Fault.Plan.make ~wire:(Fault.Plan.link ~drop:0.5 ()) () in
  let stack, _, _ = run_static_kill ~fault () in
  checki "swept once" 1 (stack_metric stack "stale_dispatch_caught");
  let plain, _, _ = run_static_kill () in
  let all s = Obs.Metrics.to_list ~keep_zero:true (Lauberhorn.Stack.metrics s) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "same metrics with and without the plan" (all plain) (all stack)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let minor_words_during f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor ();
  Gc.minor_words () -. before

(* A line's rpc id is read back whole, a negative worker-activation id
   included, and reading it allocates nothing: 10,240 reads of each
   kind of line against the same loop without the read. *)
let test_message_id_readers_allocate_nothing () =
  let module M = Lauberhorn.Message in
  let n = 10_240 in
  let request id =
    M.encode ~line_bytes:64
      (M.Kernel_dispatch
         {
           M.rpc_id = id;
           service_id = 1;
           method_id = 0;
           code_ptr = 0L;
           data_ptr = 0L;
           total_args = 0;
           inline_args = Net.Slice.empty;
           aux_count = 0;
           via_dma = false;
         })
  in
  let response id =
    M.write_response ~line_bytes:64 ~rpc_id:id ~status:0 ~total_len:0
      ~aux_count:0 Bytes.empty ~off:0 ~len:0
  in
  List.iter
    (fun id ->
      check Alcotest.int "request id" id (M.request_rpc_id (request id));
      check Alcotest.int "response id" id (M.response_rpc_id (response id)))
    [ 0; 1; max_int; -1; min_int ];
  let req = request (1 lsl 61) and resp = response (-7) in
  let loop f () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  let base = minor_words_during (loop (fun () -> 0)) in
  List.iter
    (fun (name, read) ->
      let words = minor_words_during (loop read) -. base in
      checkb
        (Printf.sprintf "%s: %.0f words over %d reads" name words n)
        true (Float.equal words 0.))
    [
      ("request_rpc_id", fun () -> M.request_rpc_id req);
      ("response_rpc_id", fun () -> M.response_rpc_id resp);
    ]

(* The allocation budget of one Lauberhorn RPC, set up as perfbench's
   host_64b workload: Config.enzian with a push mirror, 4 cores, up to
   3 workers, 64 B requests at 400k requests/s through
   [Common.make_server]. About 2k RPCs run after set-up, and every minor
   word the run allocates is charged to the RPCs it completes. The
   figure is exact for a seed, and the budget is it plus 2%. Before the
   event path stopped allocating its own bookkeeping (the int-handle
   event heap, event closures built once per line, thread and worker),
   this run took 601.5 words per RPC and perfbench's host_64b 599.6.
   Before RPC headers and CONTROL lines were read in place (no header,
   request or response record per message) it took 409.9, and
   perfbench's host_64b 401.1. Before CONTROL lines were written in
   place, the MAC kept one event closure and replies were built from
   the request frame, it took 266.9, and perfbench's host_64b 258.1.
   Before the NIC pipeline and transmit path kept their frames in
   recycled slots, requests were staged from their fields and each
   reply was encoded once into its wire payload, it took 198.8, and
   perfbench's host_64b 190.1. Before random draws stopped boxing the
   generator's state and request frames stopped building a server
   endpoint record, it took 157.5, and perfbench's host_64b 146.2.
   Before rpc ids were immediate ints, with the in-flight table and the
   recorder's send stamps in [Sim.Int_table]s, it took 143.5, and
   perfbench's host_64b 132.2. Before each in-flight entry became a
   recycled slot, it took 120.5, and perfbench's host_64b 113.2. Before
   a frame was its two endpoints and its payload, with no header
   records, it took 108.5, and perfbench's host_64b 103.2. Before the
   RPC codec read and wrote at offsets, with no cursor per encode or
   decode, it took 78.5, and perfbench's host_64b 71.2; it now takes
   68.5. *)
let rpc_words_budget = 68.5 *. 1.02

let test_rpc_allocation_budget () =
  let setup =
    Workload.Scenario.echo_fleet ~n:1 ~handler_time:(Sim.Units.ns 500) ()
  in
  let server =
    Experiments.Common.make_server ~ncores:4 ~max_workers:3
      (Experiments.Common.Lauberhorn
         (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
      setup
  in
  let engine = server.Experiments.Common.engine in
  let horizon = Sim.Units.ms 5 in
  Workload.Arrivals.open_loop engine (Sim.Rng.create ~seed:1)
    ~rate_per_s:400_000. ~until:horizon (fun ~seq ->
      Experiments.Common.inject_blob server ~seq ~service_idx:0 ~bytes:64);
  Gc.minor ();
  let before = Gc.minor_words () in
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 1);
  let words = Gc.minor_words () -. before in
  let recorder = server.Experiments.Common.recorder in
  let completed = Harness.Recorder.completed recorder in
  checki "every RPC completed" (Harness.Recorder.sent recorder) completed;
  checkb "about 2k RPCs" true (completed > 1_800);
  let per_rpc = words /. float_of_int completed in
  checkb
    (Printf.sprintf "%.1f minor words per RPC <= %.1f" per_rpc
       rpc_words_budget)
    true
    (per_rpc <= rpc_words_budget)

let () =
  Alcotest.run "lauberhorn"
    [
      ( "config",
        [
          Alcotest.test_case "paper constants" `Quick
            test_config_defaults_match_paper;
          Alcotest.test_case "update validation" `Quick
            test_config_updates_validate;
        ] );
      ( "message",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_message_request_roundtrip;
          Alcotest.test_case "marker lines" `Quick test_message_markers;
          Alcotest.test_case "response roundtrip" `Quick
            test_message_response_roundtrip;
          Alcotest.test_case "capacity enforced" `Quick
            test_message_capacity_enforced;
          Alcotest.test_case "id readers allocate nothing" `Quick
            test_message_id_readers_allocate_nothing;
        ]
        @ qsuite [ message_roundtrip_property; line_readers_agree ] );
      ( "endpoint",
        [
          Alcotest.test_case "fast path" `Quick test_endpoint_fast_path_single;
          Alcotest.test_case "double buffering" `Quick
            test_endpoint_double_buffering_pipeline;
          Alcotest.test_case "sram overflow drops" `Quick
            test_endpoint_sram_overflow_drops;
          Alcotest.test_case "kick and on_parked" `Quick
            test_endpoint_kick_and_on_parked;
          Alcotest.test_case "dma request delay" `Quick
            test_endpoint_dma_request_delay;
        ] );
      ( "sched_mirror",
        [
          Alcotest.test_case "push tracks with lag" `Quick
            test_mirror_push_tracks_with_lag;
          Alcotest.test_case "query costs mmio" `Quick
            test_mirror_query_costs_mmio;
        ] );
      ( "nic_sched",
        [
          Alcotest.test_case "scale up on queue" `Quick
            test_nic_sched_scale_up_on_queue;
          Alcotest.test_case "shed hysteresis" `Quick
            test_nic_sched_shed_hysteresis;
        ]
        @ qsuite [ nic_sched_shed_hysteresis_property ] );
      ( "pipeline",
        [ Alcotest.test_case "breakdown" `Quick test_pipeline_breakdown ] );
      ( "stack",
        [
          Alcotest.test_case "echo end to end" `Quick
            test_stack_echo_end_to_end;
          Alcotest.test_case "rpc allocation budget" `Quick
            test_rpc_allocation_budget;
          Alcotest.test_case "payload fidelity" `Quick
            test_stack_response_payload_fidelity;
          Alcotest.test_case "cold start slow path" `Quick
            test_stack_cold_start_uses_slow_path;
          Alcotest.test_case "dma fallback" `Quick
            test_stack_large_payload_dma_fallback;
          Alcotest.test_case "a held response survives line reuse" `Quick
            test_stack_held_response_survives_line_reuse;
          Alcotest.test_case "scale up under burst" `Quick
            test_stack_scale_up_under_burst;
          Alcotest.test_case "many services share cores" `Quick
            test_stack_many_services_share_cores;
          Alcotest.test_case "nested rpc (section 6)" `Quick
            test_stack_nested_rpc;
          Alcotest.test_case "nested unknown service" `Quick
            test_stack_nested_unknown_service;
          Alcotest.test_case "retire and resume dispatcher" `Quick
            test_stack_retire_and_resume_dispatcher;
          Alcotest.test_case "telemetry (section 6)" `Quick
            test_stack_telemetry;
          Alcotest.test_case "per-service stats agree with counters" `Quick
            test_stack_stats_agree_with_counters;
          Alcotest.test_case "tx endpoint backpressure" `Quick
            test_tx_endpoint_backpressure;
          Alcotest.test_case "nested uses tx lines" `Quick
            test_stack_nested_uses_tx_lines;
          Alcotest.test_case "tracing (section 6)" `Quick test_stack_tracing;
          Alcotest.test_case "cross-machine nested rpc" `Quick
            test_stack_cross_machine_nested;
          Alcotest.test_case "idle tryagain bounded" `Quick
            test_stack_tryagain_idle_traffic;
          Alcotest.test_case "kill/restart lifecycle" `Quick
            test_stack_kill_restart_lifecycle;
          Alcotest.test_case "reply echoes method id" `Quick
            test_stack_reply_echoes_method_id;
          Alcotest.test_case "static binding" `Quick test_stack_static_binding;
          Alcotest.test_case "static binding under a fault plan" `Quick
            test_stack_static_binding_fault_plan;
          Alcotest.test_case "a stale fill keeps its bytes across a restart"
            `Quick test_stack_stale_fill_keeps_its_bytes;
          Alcotest.test_case "recycled slots keep their own frames" `Quick
            test_stack_recycled_slots_keep_their_frames;
          Alcotest.test_case "kill NACKs in id order" `Quick
            test_stack_kill_nacks_in_id_order;
          Alcotest.test_case "slots across kill and restart" `Quick
            test_stack_slots_across_kill_restart;
          Alcotest.test_case "a late trace context reaches the reply" `Quick
            test_stack_late_context_reaches_the_reply;
          Alcotest.test_case "identical stacks stage the same code pointer"
            `Quick test_stack_code_ptrs_per_stack;
        ] );
    ]
