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
    Lauberhorn.Message.rpc_id = 77L;
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
      check Alcotest.int64 "rpc_id" 77L r.Lauberhorn.Message.rpc_id;
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
  let resp =
    {
      Lauberhorn.Message.resp_rpc_id = 99L;
      status = 2;
      total_len = 1000;
      inline_body = Net.Slice.of_string "xyz";
      resp_aux_count = 8;
    }
  in
  let line = Lauberhorn.Message.encode_response ~line_bytes:128 resp in
  match Lauberhorn.Message.decode_response line with
  | Ok r ->
      check Alcotest.int64 "id" 99L r.Lauberhorn.Message.resp_rpc_id;
      checki "status" 2 r.Lauberhorn.Message.status;
      checki "total" 1000 r.Lauberhorn.Message.total_len;
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
            Lauberhorn.Message.rpc_id = Int64.of_int service_id;
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
      match
        Lauberhorn.Message.decode
          (Lauberhorn.Message.encode ~line_bytes:128 msg)
      with
      | Ok m -> Lauberhorn.Message.equal m msg
      | Error _ -> false)

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
      ~on_response:(fun r -> responses := r :: !responses)
      ()
  in
  { engine; ha; ep; responses }

let req id =
  {
    Lauberhorn.Message.rpc_id = Int64.of_int id;
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
  Lauberhorn.Message.encode_response ~line_bytes
    {
      Lauberhorn.Message.resp_rpc_id = Int64.of_int id;
      status = 0;
      total_len = 2;
      inline_body = Net.Slice.of_string "ok";
      resp_aux_count = 0;
    }

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
                  Int64.to_int r.Lauberhorn.Message.rpc_id :: !handled;
                ignore
                  (Sim.Engine.schedule_after env.engine ~after:work
                     (fun () ->
                       Coherence.Home_agent.cpu_store env.ha
                         (Lauberhorn.Endpoint.ctrl_line env.ep idx)
                         (resp_line ~line_bytes
                            (Int64.to_int r.Lauberhorn.Message.rpc_id));
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
      check Alcotest.int64 "response id" 1L r.Lauberhorn.Message.resp_rpc_id;
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
  let s = Lauberhorn.Nic_sched.create ~hi_watermark:4 () in
  checkb "queue above watermark" true
    (Lauberhorn.Nic_sched.decide s ~service:1 ~queue_depth:5 ~workers:1
       ~handler_time:500
    = Lauberhorn.Nic_sched.Add_worker);
  checkb "steady below" true
    (Lauberhorn.Nic_sched.decide s ~service:1 ~queue_depth:1 ~workers:1
       ~handler_time:500
    = Lauberhorn.Nic_sched.Steady)

let test_nic_sched_rate_estimation () =
  let s = Lauberhorn.Nic_sched.create () in
  (* 1 arrival per microsecond = 1M/s. *)
  for i = 1 to 200 do
    Lauberhorn.Nic_sched.on_arrival s ~service:7 ~now:(i * Sim.Units.us 1)
  done;
  let rate = Lauberhorn.Nic_sched.rate s ~service:7 in
  checkb "rate near 1M/s" true (rate > 0.5e6 && rate < 2e6);
  Lauberhorn.Nic_sched.on_complete s ~service:7;
  checki "outstanding" 199 (Lauberhorn.Nic_sched.outstanding s ~service:7)

let test_nic_sched_release_when_idle () =
  let s = Lauberhorn.Nic_sched.create () in
  (* Two sparse arrivals: rate ~ tiny; with 2 workers, release one. *)
  Lauberhorn.Nic_sched.on_arrival s ~service:2 ~now:0;
  Lauberhorn.Nic_sched.on_arrival s ~service:2 ~now:(Sim.Units.ms 10);
  checkb "release" true
    (Lauberhorn.Nic_sched.decide s ~service:2 ~queue_depth:0 ~workers:2
       ~handler_time:500
    = Lauberhorn.Nic_sched.Release_worker)

let test_nic_sched_shed_hysteresis () =
  let s =
    Lauberhorn.Nic_sched.create ~shed:true ~shed_hi:16 ~shed_lo:4 ()
  in
  let d depth =
    Lauberhorn.Nic_sched.decide s ~service:1 ~queue_depth:depth ~workers:1
      ~handler_time:500
  in
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
  checkb "stays clear in band" true (d 10 <> Lauberhorn.Nic_sched.Shed);
  (* Watermark validation. *)
  checkb "inverted watermarks rejected" true
    (try
       ignore (Lauberhorn.Nic_sched.create ~shed:true ~shed_hi:4 ~shed_lo:8 ());
       false
     with Invalid_argument _ -> true)

let nic_sched_shed_hysteresis_property =
  QCheck.Test.make
    ~name:"shed follows the hysteresis model; never sheds when disabled"
    ~count:300
    QCheck.(pair bool (list (int_bound 32)))
    (fun (shed, depths) ->
      let s = Lauberhorn.Nic_sched.create ~shed ~shed_hi:16 ~shed_lo:4 () in
      let shedding = ref false in
      List.for_all
        (fun depth ->
          let d =
            Lauberhorn.Nic_sched.decide s ~service:1 ~queue_depth:depth
              ~workers:1 ~handler_time:500
          in
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:42L
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
      ~rpc_id:(Int64.of_int !next) ~service_id:9 ~method_id:0 ~port:7009
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1L
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1L
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 16_384 'B'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  checki "completed" 1 (Harness.Recorder.completed env.recorder);
  checkb "slower than small-rpc band" true
    (Sim.Histogram.max_value (Harness.Recorder.latencies env.recorder)
    > Sim.Units.us 3)

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
             ~rpc_id:(Int64.of_int i) ~service_id:1 ~method_id:0 ~port:7000
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
             ~rpc_id:(Int64.of_int i)
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:5L
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1L
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1L
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:2L
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
    Lauberhorn.Tx_endpoint.create ha Lauberhorn.Config.enzian ~id:0
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
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:1L
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
        if Net.Ip_addr.equal f.Net.Frame.ip.Net.Ipv4.dst b_ip then
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
         Harness.Traffic.inject recorder driver ~rpc_id:1L ~service_id:4
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
             ~rpc_id:(Int64.of_int i) ~service_id:1 ~method_id:0 ~port:7000
             (Rpc.Value.Blob (Bytes.make 48 't'))))
  done;
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 5);
  let tel = Lauberhorn.Stack.telemetry env.stack in
  checki "all recorded" 50 (Lauberhorn.Telemetry.total_rpcs tel);
  check (Alcotest.list Alcotest.int) "one service" [ 1 ]
    (Lauberhorn.Telemetry.services tel);
  let fast, queued, cold = Lauberhorn.Telemetry.path_counts tel ~service_id:1 in
  checki "paths sum" 50 (fast + queued + cold);
  checkb "mostly fast" true (fast > 25);
  let bytes_in, bytes_out = Lauberhorn.Telemetry.bytes tel ~service_id:1 in
  checkb "bytes tracked" true (bytes_in > 0 && bytes_out > 0);
  let h = Lauberhorn.Telemetry.latency tel ~service_id:1 in
  checki "histogram count" 50 (Sim.Histogram.count h);
  (* The NIC-side latency must agree with the client-observed latency
     up to the TX MAC delay. *)
  let nic_p50 = Sim.Histogram.quantile h 0.5 in
  let client_p50 =
    Sim.Histogram.quantile (Harness.Recorder.latencies env.recorder) 0.5
  in
  checkb "nic view close to client view" true
    (abs (client_p50 - nic_p50) < Sim.Units.us 1)

let test_stack_tracing () =
  let env = make_stack ~services:[ echo_spec ~port:7000 ~id:1 () ] () in
  let trace = Sim.Trace.create () in
  Sim.Trace.enable trace;
  Lauberhorn.Stack.attach_trace env.stack trace;
  ignore
    (Sim.Engine.schedule_after env.sengine ~after:(Sim.Units.us 10)
       (fun () ->
         Harness.Traffic.inject env.recorder env.driver ~rpc_id:9L
           ~service_id:1 ~method_id:0 ~port:7000
           (Rpc.Value.Blob (Bytes.make 24 'z'))));
  Sim.Engine.run env.sengine ~until:(Sim.Units.ms 2);
  let cats = List.map (fun (_, c, _) -> c) (Sim.Trace.entries trace) in
  let has c = List.mem c cats in
  checkb "rx traced" true (has "rx");
  checkb "dispatch traced" true (has "dispatch");
  checkb "tx traced" true (has "tx");
  (* Events are time-ordered: rx before tx. *)
  let idx c =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = c then i else go (i + 1) rest
    in
    go 0 cats
  in
  checkb "rx before dispatch before tx" true
    (idx "rx" < idx "dispatch" && idx "dispatch" < idx "tx")

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
             ~rpc_id:(Int64.of_int n) ~service_id:1 ~method_id:0 ~port:7000
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
    Harness.Traffic.inject recorder driver ~rpc_id:(Int64.of_int n)
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
      List.find_opt (fun (rid, _, _) -> Int64.equal rid (Int64.of_int id))
        replies
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
  (* Any non-identity plan switches on the stack's fault telemetry,
     which shares the stack's metrics registry. The wire link is never
     driven in this harness-free run, so the scenario is the fault-free
     one, and the held request must still be counted once. *)
  let fault = Fault.Plan.make ~wire:(Fault.Plan.link ~drop:0.5 ()) () in
  let stack, _, _ = run_static_kill ~fault () in
  checki "swept once" 1 (stack_metric stack "stale_dispatch_caught")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

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
        ]
        @ qsuite [ message_roundtrip_property ] );
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
          Alcotest.test_case "rate estimation" `Quick
            test_nic_sched_rate_estimation;
          Alcotest.test_case "release when idle" `Quick
            test_nic_sched_release_when_idle;
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
          Alcotest.test_case "payload fidelity" `Quick
            test_stack_response_payload_fidelity;
          Alcotest.test_case "cold start slow path" `Quick
            test_stack_cold_start_uses_slow_path;
          Alcotest.test_case "dma fallback" `Quick
            test_stack_large_payload_dma_fallback;
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
        ] );
    ]
