(* Tests for the experiment harness: recorder matching and traffic
   construction. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let test_traffic_frames_parse_back () =
  let frame =
    Harness.Traffic.request_frame ~rpc_id:5L ~service_id:2 ~method_id:1
      ~port:8080 ~client:(Harness.Traffic.client_endpoint ())
      (Rpc.Value.str "payload")
  in
  checki "dst port" 8080 frame.Net.Frame.dst.Net.Frame.port;
  (* The full frame survives a byte-level encode/parse round trip. *)
  (match Net.Frame.parse (Net.Frame.encode frame) with
  | Ok f -> (
      match Rpc.Wire_format.decode f.Net.Frame.payload with
      | Ok w ->
          checki "rpc id" 5 w.Rpc.Wire_format.rpc_id;
          checki "service" 2 w.Rpc.Wire_format.service_id;
          checkb "is request" true
            (w.Rpc.Wire_format.kind = Rpc.Wire_format.Request)
      | Error e -> Alcotest.failf "rpc: %a" Rpc.Wire_format.pp_error e)
  | Error e -> Alcotest.failf "frame: %a" Net.Frame.pp_error e);
  (* Distinct client indices give distinct endpoints. *)
  let c0 = Harness.Traffic.client_endpoint ~idx:0 () in
  let c1 = Harness.Traffic.client_endpoint ~idx:1 () in
  checkb "distinct clients" false
    (Net.Ip_addr.equal c0.Net.Frame.ip c1.Net.Frame.ip)

let response_frame ~rpc_id =
  let reply =
    {
      Rpc.Wire_format.rpc_id;
      service_id = 1;
      method_id = 0;
      kind = Rpc.Wire_format.Response;
      ctx = None;
      body = Bytes.empty;
    }
  in
  Net.Frame.make
    ~src:(Harness.Traffic.server_endpoint ~port:7000)
    ~dst:(Harness.Traffic.client_endpoint ())
    (Rpc.Wire_format.encode reply)

let test_recorder_latency_measurement () =
  let e = Sim.Engine.create () in
  let r = Harness.Recorder.create e in
  Harness.Recorder.note_sent r ~rpc_id:1L;
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 7) (fun () ->
         Harness.Recorder.egress r (response_frame ~rpc_id:1)));
  Sim.Engine.run e;
  checki "completed" 1 (Harness.Recorder.completed r);
  checki "latency" (Sim.Units.us 7)
    (Sim.Histogram.max_value (Harness.Recorder.latencies r));
  checki "outstanding" 0 (Harness.Recorder.outstanding r)

let test_recorder_unmatched_and_duplicates () =
  let e = Sim.Engine.create () in
  let r = Harness.Recorder.create e in
  Harness.Recorder.note_sent r ~rpc_id:1L;
  Harness.Recorder.egress r (response_frame ~rpc_id:99) (* unknown id *);
  Harness.Recorder.egress r (response_frame ~rpc_id:1);
  Harness.Recorder.egress r (response_frame ~rpc_id:1) (* duplicate *);
  checki "completed once" 1 (Harness.Recorder.completed r);
  checki "unmatched counted" 2 (Harness.Recorder.unmatched r)

let test_recorder_observer () =
  let e = Sim.Engine.create () in
  let r = Harness.Recorder.create e in
  let seen = ref [] in
  Harness.Recorder.on_complete r (fun ~rpc_id ~latency ->
      seen := (rpc_id, latency) :: !seen);
  Harness.Recorder.note_sent r ~rpc_id:3L;
  Harness.Recorder.egress r (response_frame ~rpc_id:3);
  checkb "observer fired" true (!seen = [ (3L, 0) ])

(* Allocation budgets of the harness's per-RPC calls, in minor words
   per call on a 64-byte request, flushed with [Gc.minor] as in
   test_net's budget. The recorder's budget is its measured count plus
   2; [request_frame]'s is its exact count, 20, plus 2%: the payload,
   the server endpoint on the service port and the frame. A call took
   38 words (the budget was 42) while a frame was four records and
   [~client] was optional, so passing it boxed a [Some], and 23 while
   the RPC codec wrote the request through a cursor record (3 words).
   The default server and client addresses
   are parsed once, not per call, the request is encoded straight into
   the frame's payload, and
   [egress] reads the reply's header in place, building no header
   record. The recorder's 3 words per RPC are the caller's own
   [Int64.of_int] of the id it passes to [note_sent]: the send stamps
   sit in a [Sim.Int_table], so neither the stamp nor the reply's
   lookup allocates (they took 10 words, a bucket cell and a boxed id,
   when the stamps were an [int64]-keyed [Hashtbl]). *)
let words_per_call ~n f =
  for _ = 1 to 100 do f () done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to n do f () done;
  Gc.minor ();
  (Gc.minor_words () -. before) /. float n

let payload_64b = Rpc.Value.Blob (Bytes.make 64 'w')

let test_request_frame_allocation_budget () =
  let budget = 20. *. 1.02 in
  let client = Harness.Traffic.client_endpoint ~idx:3 () in
  let words =
    words_per_call ~n:10_000 (fun () ->
        ignore
          (Harness.Traffic.request_frame ~rpc_id:7L ~service_id:1 ~method_id:0
             ~port:7000 ~client payload_64b))
  in
  checkb
    (Printf.sprintf "%.1f words/frame <= %.2f" words budget)
    true (words <= budget)

let test_recorder_allocation_budget () =
  let budget = 5. in
  let e = Sim.Engine.create () in
  let r = Harness.Recorder.create e in
  let frames =
    Array.init 1000 (fun i ->
        Net.Frame.make
          ~src:(Harness.Traffic.server_endpoint ~port:7000)
          ~dst:(Harness.Traffic.client_endpoint ())
          (Rpc.Wire_format.encode
             {
               Rpc.Wire_format.rpc_id = i;
               service_id = 1;
               method_id = 0;
               kind = Rpc.Wire_format.Response;
               ctx = None;
               body = Rpc.Codec.encode payload_64b;
             }))
  in
  let k = ref 0 in
  let words =
    words_per_call ~n:10_000 (fun () ->
        let i = !k mod 1000 in
        incr k;
        Harness.Recorder.note_sent r ~rpc_id:(Int64.of_int i);
        Harness.Recorder.egress r frames.(i))
  in
  checki "every reply matched" 10_100 (Harness.Recorder.completed r);
  checkb
    (Printf.sprintf "note_sent+egress: %.1f words/RPC <= %.0f" words budget)
    true (words <= budget)

let test_client_retransmission_over_lossy_link () =
  (* End-to-end robustness: a client with retransmission behind a 20%%-
     lossy link in both directions still completes every call. The
     loss is a seeded fault injector in front of each wire. *)
  let engine = Sim.Engine.create () in
  let lossy ~seed ~deliver =
    let wire =
      Net.Wire.create engine ~gbps:100. ~propagation:(Sim.Units.ns 500)
        ~deliver ()
    in
    Fault.Link.create engine ~plan:(Fault.Plan.link ~drop:0.2 ())
      ~rng:(Sim.Rng.create ~seed) ~deliver:(Net.Wire.transmit wire) ()
  in
  let client = ref None in
  let to_client =
    lossy ~seed:11 ~deliver:(fun f ->
        match !client with Some c -> Harness.Client.on_reply c f | None -> ())
  in
  let stack =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:4
      ~services:
        [ Lauberhorn.Stack.spec ~port:7000 (Rpc.Interface.echo_service ~id:1) ]
      ~egress:(Fault.Link.send to_client)
      ()
  in
  let to_server =
    lossy ~seed:12 ~deliver:(fun f -> Lauberhorn.Stack.ingress stack f)
  in
  let c =
    Harness.Client.create engine ~send:(Fault.Link.send to_server) ()
  in
  client := Some c;
  let done_count = ref 0 in
  for i = 1 to 200 do
    ignore
      (Sim.Engine.schedule_at engine
         ~at:(i * Sim.Units.us 20)
         (fun () ->
           Harness.Client.call c ~timeout:(Sim.Units.us 200) ~retries:10
             ~service_id:1 ~method_id:0 ~port:7000
             (Rpc.Value.Blob (Bytes.make 32 'l'))
             (fun _ -> incr done_count)))
  done;
  Sim.Engine.run engine ~until:(Sim.Units.ms 50);
  checki "all complete despite loss" 200 !done_count;
  checki "nothing abandoned" 0 (Harness.Client.abandoned c);
  checkb "retransmissions happened" true (Harness.Client.retransmits c > 20);
  checkb "link dropped frames" true
    (List.assoc "dropped" (Fault.Link.counters to_server ~prefix:"") > 20)

let test_client_abandons_when_server_unreachable () =
  let engine = Sim.Engine.create () in
  let c = Harness.Client.create engine ~send:(fun _ -> ()) () in
  let got_reply = ref false in
  Harness.Client.call c ~timeout:(Sim.Units.us 100) ~retries:2 ~service_id:1
    ~method_id:0 ~port:7000 Rpc.Value.Unit (fun _ -> got_reply := true);
  Sim.Engine.run engine ~until:(Sim.Units.ms 10);
  checkb "no reply" false !got_reply;
  checki "abandoned" 1 (Harness.Client.abandoned c);
  checki "retried twice" 2 (Harness.Client.retransmits c);
  checki "slot released" 0 (Harness.Client.outstanding c)

(* A call that fails stops its timer. Call A (timeout 100 us, 2
   retries) gets a non-retriable Error_reply 7 at 10 us, which frees
   its slot; call B reuses slot 0 at 50 us (timeout 1 ms, no retries)
   and is never answered. A's timer must not retransmit A, abandon it a
   second time, or cancel B: B stays outstanding until its own timeout
   at 1050 us, and every call is counted exactly once. *)
let test_client_failed_call_stops_its_timer () =
  let engine = Sim.Engine.create () in
  let client = ref None in
  let first_id = ref 0 in
  (* the server answers every transmission of the first call it sees,
     and nothing else *)
  let send frame =
    let req = frame.Net.Frame.payload in
    let rpc_id = Rpc.Wire_format.rpc_id req in
    if Int.equal !first_id 0 then first_id := rpc_id;
    if Int.equal rpc_id !first_id then
      let reply =
        Net.Frame.reply_to ~src:frame.Net.Frame.src ~dst:frame.Net.Frame.dst
          (Rpc.Wire_format.encode_body ~kind:(Rpc.Wire_format.Error_reply 7)
             ~rpc_id ~service_id:(Rpc.Wire_format.service_id req)
             ~method_id:(Rpc.Wire_format.method_id req) Bytes.empty)
      in
      ignore
        (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
             match !client with
             | Some c -> Harness.Client.on_reply c reply
             | None -> ()))
  in
  let c = Harness.Client.create engine ~send () in
  client := Some c;
  let replied = ref 0 in
  ignore
    (Harness.Client.call_id c ~timeout:(Sim.Units.us 100) ~retries:2
       ~service_id:1 ~method_id:0 ~port:7000 Rpc.Value.Unit (fun _ ->
         incr replied));
  let second_id = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 50) (fun () ->
         second_id :=
           Int64.to_int
             (Harness.Client.call_id c ~timeout:(Sim.Units.ms 1) ~retries:0
                ~service_id:1 ~method_id:0 ~port:7000 Rpc.Value.Unit (fun _ ->
                  incr replied))));
  Sim.Engine.run engine ~until:(Sim.Units.us 1000);
  checki "slot 0 reused" (!first_id land 0xF_FFFF) (!second_id land 0xF_FFFF);
  checki "call B still outstanding before its timeout" 1
    (Harness.Client.outstanding c);
  checki "no abandon before B's timeout" 0 (Harness.Client.abandoned c);
  Sim.Engine.run engine ~until:(Sim.Units.ms 5);
  checki "sent" 2 (Harness.Client.sent c);
  checki "errors" 1 (Harness.Client.errors c);
  checki "the failed call is not retransmitted" 0
    (Harness.Client.retransmits c);
  checki "abandoned once, at B's own timeout" 1 (Harness.Client.abandoned c);
  checki "no reply" 0 !replied;
  checki "completed + errors + abandoned = sent" (Harness.Client.sent c)
    (Harness.Client.completed c + Harness.Client.errors c
   + Harness.Client.abandoned c);
  checki "nothing outstanding" 0 (Harness.Client.outstanding c)

(* A completed call's timer stops with it. Call A (timeout 100 us, 2
   retries) is answered at 10 us; call B reuses A's continuation slot,
   and so its call record, at 50 us (timeout 100 us, 1 retry) and is
   never answered. A's timer, due at 100 us, must neither retransmit
   nor abandon B, whose own timer retransmits at 150 us and abandons
   at 250 us. *)
let test_client_stale_timer_leaves_a_reused_slot_alone () =
  let engine = Sim.Engine.create () in
  let client = ref None in
  let first_id = ref 0 in
  (* the server answers the first call it sees, and nothing else *)
  let send frame =
    let req = frame.Net.Frame.payload in
    let rpc_id = Rpc.Wire_format.rpc_id req in
    if Int.equal !first_id 0 then first_id := rpc_id;
    if Int.equal rpc_id !first_id then
      let reply =
        Net.Frame.reply_to ~src:frame.Net.Frame.src ~dst:frame.Net.Frame.dst
          (Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Response
             ~rpc_id ~service_id:(Rpc.Wire_format.service_id req)
             ~method_id:(Rpc.Wire_format.method_id req) Rpc.Value.Unit)
      in
      ignore
        (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
             match !client with
             | Some c -> Harness.Client.on_reply c reply
             | None -> ()))
  in
  let c = Harness.Client.create engine ~send () in
  client := Some c;
  let replied = ref 0 in
  ignore
    (Harness.Client.call_id c ~timeout:(Sim.Units.us 100) ~retries:2
       ~service_id:1 ~method_id:0 ~port:7000 Rpc.Value.Unit (fun _ ->
         incr replied));
  let second_id = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine ~at:(Sim.Units.us 50) (fun () ->
         second_id :=
           Int64.to_int
             (Harness.Client.call_id c ~timeout:(Sim.Units.us 100) ~retries:1
                ~service_id:1 ~method_id:0 ~port:7000 Rpc.Value.Unit (fun _ ->
                  incr replied))));
  Sim.Engine.run engine ~until:(Sim.Units.us 120);
  checki "A completed" 1 (Harness.Client.completed c);
  checki "slot reused" (!first_id land 0xF_FFFF) (!second_id land 0xF_FFFF);
  checki "A's timer retransmits nothing" 0 (Harness.Client.retransmits c);
  checki "A's timer abandons nothing" 0 (Harness.Client.abandoned c);
  checki "B outstanding" 1 (Harness.Client.outstanding c);
  Sim.Engine.run engine ~until:(Sim.Units.us 200);
  checki "B retransmitted once, by its own timer" 1
    (Harness.Client.retransmits c);
  checki "B still outstanding" 1 (Harness.Client.outstanding c);
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  checki "B abandoned once" 1 (Harness.Client.abandoned c);
  checki "one reply" 1 !replied;
  checki "completed + abandoned = sent" (Harness.Client.sent c)
    (Harness.Client.completed c + Harness.Client.abandoned c);
  checki "nothing outstanding" 0 (Harness.Client.outstanding c)

(* A finished call leaves nothing on the engine. Three calls with a
   1 ms timeout go out at 0: the server answers the first at 10 us,
   fails the second with a non-retriable Error_reply 7 at 10 us, and
   never answers the third, whose 50 us timeout (no retries) abandons
   it. At 60 us, long before the first two calls' timers were due, no
   event may be pending. *)
let test_client_finished_calls_leave_nothing_pending () =
  let engine = Sim.Engine.create () in
  let client = ref None in
  let seen = ref 0 in
  let send frame =
    let req = frame.Net.Frame.payload in
    incr seen;
    let reply kind =
      let rpc_id = Rpc.Wire_format.rpc_id req in
      let reply =
        Net.Frame.reply_to ~src:frame.Net.Frame.src ~dst:frame.Net.Frame.dst
          (Rpc.Wire_format.encode_value ~kind ~rpc_id
             ~service_id:(Rpc.Wire_format.service_id req)
             ~method_id:(Rpc.Wire_format.method_id req) Rpc.Value.Unit)
      in
      ignore
        (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 10) (fun () ->
             match !client with
             | Some c -> Harness.Client.on_reply c reply
             | None -> ()))
    in
    match !seen with
    | 1 -> reply Rpc.Wire_format.Response
    | 2 -> reply (Rpc.Wire_format.Error_reply 7)
    | _ -> ()
  in
  let c = Harness.Client.create engine ~send () in
  client := Some c;
  let replied = ref 0 in
  let call timeout retries =
    Harness.Client.call c ~timeout ~retries ~service_id:1 ~method_id:0
      ~port:7000 Rpc.Value.Unit (fun _ -> incr replied)
  in
  call (Sim.Units.ms 1) 2;
  call (Sim.Units.ms 1) 2;
  call (Sim.Units.us 50) 0;
  Sim.Engine.run engine ~until:(Sim.Units.us 60);
  checki "one completed" 1 (Harness.Client.completed c);
  checki "one failed" 1 (Harness.Client.errors c);
  checki "one abandoned" 1 (Harness.Client.abandoned c);
  checki "one reply" 1 !replied;
  checki "nothing outstanding" 0 (Harness.Client.outstanding c);
  checki "nothing pending" 0 (Sim.Engine.pending engine)

(* The client's ledger. [ledger_client answer] is a client whose
   server answers the [n]th transmission it sees, of call [rpc_id],
   as [answer n rpc_id] says: [Some (after, kind)] replies with [kind]
   [after] later, [None] drops it. The observer's completions are
   logged, oldest first. *)
let ledger_client answer =
  let engine = Sim.Engine.create () in
  let client = ref None in
  let seen = ref 0 in
  let send frame =
    let req = frame.Net.Frame.payload in
    incr seen;
    let rpc_id = Rpc.Wire_format.rpc_id req in
    match answer !seen rpc_id with
    | None -> ()
    | Some (after, kind) ->
        let reply =
          Net.Frame.reply_to ~src:frame.Net.Frame.src ~dst:frame.Net.Frame.dst
            (Rpc.Wire_format.encode_value ~kind ~rpc_id
               ~service_id:(Rpc.Wire_format.service_id req)
               ~method_id:(Rpc.Wire_format.method_id req) Rpc.Value.Unit)
        in
        ignore
          (Sim.Engine.schedule_after engine ~after (fun () ->
               match !client with
               | Some c -> Harness.Client.on_reply c reply
               | None -> ()))
  in
  let c = Harness.Client.create engine ~send () in
  client := Some c;
  let log = ref [] in
  Harness.Client.on_complete c (fun ~rpc_id ~latency ->
      log := (rpc_id, latency) :: !log);
  (engine, c, fun () -> List.rev !log)

let call_at engine c ~at ?timeout ?(retries = 0) () =
  let id = ref 0 in
  ignore
    (Sim.Engine.schedule_at engine ~at (fun () ->
         id :=
           Int64.to_int
             (Harness.Client.call_id c ?timeout ~retries ~service_id:1
                ~method_id:0 ~port:7000 Rpc.Value.Unit ignore)));
  id

let check_ledger_counts c log =
  let h = Harness.Client.latencies c in
  checki "observer count = completed" (Harness.Client.completed c)
    (List.length log);
  checki "histogram count = completed" (Harness.Client.completed c)
    (Sim.Histogram.count h)

(* A call whose first transmission is lost and whose retransmission,
   100 us later, is answered 10 us after that takes 110 us: the latency
   runs from the first transmission, not the last. *)
let test_ledger_retransmitted_call_times_from_first_send () =
  let answer n _ =
    if n = 1 then None else Some (Sim.Units.us 10, Rpc.Wire_format.Response)
  in
  let engine, c, log = ledger_client answer in
  let id =
    call_at engine c ~at:(Sim.Units.us 5) ~timeout:(Sim.Units.us 100)
      ~retries:2 ()
  in
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  checki "retransmitted once" 1 (Harness.Client.retransmits c);
  checkb "observer saw the call from its first transmission" true
    (log () = [ (!id, Sim.Units.us 110) ]);
  let h = Harness.Client.latencies c in
  checki "recorded latency" (Sim.Units.us 110) (Sim.Histogram.max_value h);
  check_ledger_counts c (log ())

(* Of three calls, one completes (after 10 us), one fails with a
   non-retriable error reply, and one is never answered and is
   abandoned: only the completed one is recorded and observed. *)
let test_ledger_failed_and_abandoned_calls_record_nothing () =
  let answer n _ =
    match n with
    | 1 -> Some (Sim.Units.us 10, Rpc.Wire_format.Response)
    | 2 -> Some (Sim.Units.us 10, Rpc.Wire_format.Error_reply 7)
    | _ -> None
  in
  let engine, c, log = ledger_client answer in
  let ok = call_at engine c ~at:0 ~timeout:(Sim.Units.ms 1) () in
  ignore (call_at engine c ~at:0 ~timeout:(Sim.Units.ms 1) ());
  ignore (call_at engine c ~at:0 ~timeout:(Sim.Units.us 50) ~retries:1 ());
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  checki "one completed" 1 (Harness.Client.completed c);
  checki "one failed" 1 (Harness.Client.errors c);
  checki "one abandoned" 1 (Harness.Client.abandoned c);
  checkb "only the completed call observed" true
    (log () = [ (!ok, Sim.Units.us 10) ]);
  check_ledger_counts c (log ())

(* Four calls issued 10 us apart and answered after 100, 70, 40 and
   10 us complete in reverse order; the observer sees each completion's
   id and latency in that order. *)
let test_ledger_observer_sees_completion_order () =
  let delays = [| 100; 70; 40; 10 |] in
  let answer n _ =
    Some (Sim.Units.us delays.(n - 1), Rpc.Wire_format.Response)
  in
  let engine, c, log = ledger_client answer in
  let ids =
    List.init 4 (fun i -> call_at engine c ~at:(Sim.Units.us (10 * i)) ())
  in
  Sim.Engine.run engine ~until:(Sim.Units.ms 1);
  let expected =
    List.rev
      (List.mapi (fun i id -> (!id, Sim.Units.us delays.(i))) ids)
  in
  checkb "completion order, with latencies" true (log () = expected);
  checki "nothing outstanding" 0 (Harness.Client.outstanding c);
  check_ledger_counts c (log ())

let () =
  Alcotest.run "harness"
    [
      ( "traffic",
        [
          Alcotest.test_case "frames parse back" `Quick
            test_traffic_frames_parse_back;
          Alcotest.test_case "request_frame allocation budget" `Quick
            test_request_frame_allocation_budget;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "latency measurement" `Quick
            test_recorder_latency_measurement;
          Alcotest.test_case "unmatched and duplicates" `Quick
            test_recorder_unmatched_and_duplicates;
          Alcotest.test_case "observer" `Quick test_recorder_observer;
          Alcotest.test_case "allocation budget" `Quick
            test_recorder_allocation_budget;
        ] );
      ( "client",
        [
          Alcotest.test_case "retransmission over lossy link" `Quick
            test_client_retransmission_over_lossy_link;
          Alcotest.test_case "abandons unreachable server" `Quick
            test_client_abandons_when_server_unreachable;
          Alcotest.test_case "a failed call stops its timer" `Quick
            test_client_failed_call_stops_its_timer;
          Alcotest.test_case "a stale timer leaves a reused slot alone" `Quick
            test_client_stale_timer_leaves_a_reused_slot_alone;
          Alcotest.test_case "finished calls leave nothing pending" `Quick
            test_client_finished_calls_leave_nothing_pending;
          Alcotest.test_case "latency runs from the first send" `Quick
            test_ledger_retransmitted_call_times_from_first_send;
          Alcotest.test_case "failed or abandoned calls record nothing"
            `Quick test_ledger_failed_and_abandoned_calls_record_nothing;
          Alcotest.test_case "the observer sees completion order" `Quick
            test_ledger_observer_sees_completion_order;
        ] );
    ]
