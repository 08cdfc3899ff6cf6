(* Cross-stack integration tests: the paper's comparative claims, as
   assertions. Absolute numbers are simulator outputs; the *orderings*
   are what the paper predicts and what these tests pin down. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

type run = {
  recorder : Harness.Recorder.t;
  kernel : Osmodel.Kernel.t;
  counters : Sim.Counter.group;
  horizon : Sim.Units.time;
}

let horizon = Sim.Units.ms 30

(* Run one stack against an open-loop uniform workload over [nservices]
   echo services and return the measurements. *)
let run_stack ~stack ~ncores ~nservices ~rate ?(payload = 64) ?(zipf_s = 0.)
    ?(min_workers = 1) () =
  let engine = Sim.Engine.create () in
  let recorder = Harness.Recorder.create engine in
  let setup = Workload.Scenario.echo_fleet ~n:nservices () in
  let egress = Harness.Recorder.egress recorder in
  let driver, kernel, counters =
    match stack with
    | `Lauberhorn mirror_mode ->
        let s =
          Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian
            ~ncores ~mirror_mode
            ~services:
              (List.mapi
                 (fun i def ->
                   Lauberhorn.Stack.spec ~min_workers ~max_workers:2
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Lauberhorn.Stack.driver s,
          Lauberhorn.Stack.kernel s,
          Lauberhorn.Stack.counters s )
    | `Linux ->
        let s =
          Baseline.Linux_stack.create engine
            ~profile:Coherence.Interconnect.pcie_enzian ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Linux_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Baseline.Linux_stack.driver s,
          Baseline.Linux_stack.kernel s,
          Baseline.Linux_stack.counters s )
    | `Static ->
        let s =
          Lauberhorn.Stack.create engine ~binding:Lauberhorn.Stack.Static
            ~cfg:
              (Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian
                 (Sim.Units.us 50))
            ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Lauberhorn.Stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        ( Lauberhorn.Stack.driver s,
          Lauberhorn.Stack.kernel s,
          Lauberhorn.Stack.counters s )
    | `Bypass ->
        let s =
          Baseline.Bypass_stack.create engine
            ~profile:Coherence.Interconnect.pcie_enzian ~ncores
            ~services:
              (List.mapi
                 (fun i def ->
                   Baseline.Bypass_stack.spec
                     ~port:setup.Workload.Scenario.ports.(i) def)
                 setup.Workload.Scenario.defs)
            ~egress ()
        in
        (* Flush idle-spin windows right before the horizon so the
           ledgers are complete when we read them. *)
        ignore
          (Sim.Engine.schedule_at engine ~at:(horizon + Sim.Units.ms 9)
             (fun () -> Baseline.Bypass_stack.flush_spin s));
        ( Baseline.Bypass_stack.driver s,
          Baseline.Bypass_stack.kernel s,
          Baseline.Bypass_stack.counters s )
  in
  let rng = Sim.Rng.create ~seed:1234 in
  let zipf =
    if zipf_s > 0. then
      Some (Workload.Dist.Zipf.create ~n:nservices ~s:zipf_s)
    else None
  in
  Workload.Arrivals.open_loop engine rng ~rate_per_s:rate ~until:horizon
    (fun ~seq ->
      let svc =
        match zipf with
        | Some z -> Workload.Rpc_mix.zipf_pick rng z
        | None -> Workload.Rpc_mix.uniform_pick rng ~services:nservices
      in
      Harness.Traffic.inject recorder driver
        ~client:Harness.Traffic.default_client
        ~rpc_id:seq
        ~service_id:(Workload.Scenario.service_id_of setup ~service_idx:svc)
        ~method_id:0
        ~port:(Workload.Scenario.port_of setup ~service_idx:svc)
        (Rpc.Value.Blob (Bytes.make payload 'w')));
  Sim.Engine.run engine ~until:(horizon + Sim.Units.ms 10);
  { recorder; kernel; counters; horizon = horizon + Sim.Units.ms 10 }

let p50 r = Sim.Histogram.quantile (Harness.Recorder.latencies r.recorder) 0.5
let p99 r = Sim.Histogram.quantile (Harness.Recorder.latencies r.recorder) 0.99

let spin_total r =
  List.fold_left
    (fun acc a -> acc + Osmodel.Cpu_account.charged a Osmodel.Cpu_account.Spin)
    0
    (Osmodel.Kernel.accounts r.kernel)

let stall_total r =
  List.fold_left
    (fun acc a ->
      acc + Osmodel.Cpu_account.charged a Osmodel.Cpu_account.Stall)
    0
    (Osmodel.Kernel.accounts r.kernel)

(* ---------- E6: latency ordering at light-to-moderate load ---------- *)

let test_latency_ordering () =
  let args = (4, 1, 100_000.) in
  let ncores, nservices, rate = args in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let lin = run_stack ~stack:`Linux ~ncores ~nservices ~rate () in
  let byp = run_stack ~stack:`Bypass ~ncores ~nservices ~rate () in
  checkb
    (Printf.sprintf "lauberhorn (%d) < bypass (%d)" (p50 lau) (p50 byp))
    true (p50 lau < p50 byp);
  checkb
    (Printf.sprintf "bypass (%d) < linux (%d)" (p50 byp) (p50 lin))
    true (p50 byp < p50 lin);
  (* Nothing lost anywhere. *)
  List.iter
    (fun r ->
      checki "conservation"
        (Harness.Recorder.sent r.recorder)
        (Harness.Recorder.completed r.recorder))
    [ lau; lin; byp ]

(* ---------- E8: energy (spin vs stall) ---------- *)

let test_energy_no_spinning () =
  let ncores, nservices, rate = (4, 1, 50_000.) in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let byp = run_stack ~stack:`Bypass ~ncores ~nservices ~rate () in
  checki "lauberhorn never spins" 0 (spin_total lau);
  (* Bypass burns most of 4 cores x 40ms spinning at this low load. *)
  checkb "bypass spins heavily" true (spin_total byp > Sim.Units.ms 50);
  (* Lauberhorn's waiting shows up as stalled loads instead. *)
  checkb "lauberhorn stalls instead" true (stall_total lau > Sim.Units.ms 10)

(* ---------- E5: TRYAGAIN timeout controls idle bus traffic ---------- *)

let test_tryagain_timeout_monotone () =
  let tries timeout =
    let engine = Sim.Engine.create () in
    let recorder = Harness.Recorder.create engine in
    let stack =
      Lauberhorn.Stack.create engine
        ~cfg:(Lauberhorn.Config.with_timeout Lauberhorn.Config.enzian timeout)
        ~ncores:4
        ~services:
          [ Lauberhorn.Stack.spec ~port:7000 (Rpc.Interface.echo_service ~id:1) ]
        ~egress:(Harness.Recorder.egress recorder)
        ()
    in
    Sim.Engine.run engine ~until:(Sim.Units.ms 60);
    Coherence.Home_agent.tryagains (Lauberhorn.Stack.home_agent stack)
  in
  let fast = tries (Sim.Units.us 100) in
  let mid = tries (Sim.Units.ms 1) in
  let slow = tries (Sim.Units.ms 15) in
  checkb
    (Printf.sprintf "monotone: %d > %d > %d" fast mid slow)
    true
    (fast > mid && mid > slow);
  (* At the paper's 15ms setting an idle 60ms run has single-digit
     tryagains per parked line: effectively zero polling. *)
  checkb "15ms is near-zero traffic" true (slow < 40)

(* ---------- E3 ablation: push mirror vs query ---------- *)

let test_mirror_push_beats_query () =
  let ncores, nservices, rate = (4, 1, 100_000.) in
  let push =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ()
  in
  let query =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Query) ~ncores
      ~nservices ~rate ()
  in
  (* Querying the host at dispatch time costs an MMIO read on every
     request: ~1.1us extra on the Enzian profile. *)
  checkb
    (Printf.sprintf "push p50 %d + margin < query p50 %d" (p50 push)
       (p50 query))
    true
    (p50 push + 800 < p50 query)

(* ---------- E7: dynamic workload, many services, skew ---------- *)

let test_dynamic_skewed_services () =
  (* 32 services, strongly Zipf-skewed, on 8 cores, at a rate that
     saturates the bypass poller stuck with the hottest service (static
     binding) while leaving plenty of aggregate capacity. Lauberhorn
     activates workers on demand and shares all cores. *)
  let ncores, nservices, rate = (8, 32, 1_300_000.) in
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores
      ~nservices ~rate ~zipf_s:1.6 ~min_workers:0 ()
  in
  let byp =
    run_stack ~stack:`Bypass ~ncores ~nservices ~rate ~zipf_s:1.6 ()
  in
  (* Bypass pins 12 services onto 4 pollers; the hot services share one
     poller with cold ones and head-of-line block. Lauberhorn shares
     all cores. *)
  checkb "lauberhorn completes everything" true
    (Harness.Recorder.completed lau.recorder
    = Harness.Recorder.sent lau.recorder);
  checkb
    (Printf.sprintf "tail: lauberhorn %d < bypass %d" (p99 lau) (p99 byp))
    true
    (p99 lau < p99 byp)

(* ---------- E4: DMA crossover visible end-to-end ---------- *)

let test_large_payloads_still_complete () =
  let lau =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:4
      ~nservices:1 ~rate:5_000. ~payload:16_384 ()
  in
  checki "conservation"
    (Harness.Recorder.sent lau.recorder)
    (Harness.Recorder.completed lau.recorder);
  checkb "large payloads slower than small band" true
    (p50 lau > Sim.Units.us 3)

(* ---------- Ablation: coherent interconnect vs OS integration ------- *)

let test_static_ablation () =
  (* Single hot service at low load: the static coherent NIC matches
     Lauberhorn (the interconnect is doing the work). *)
  let lau_hot =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:4
      ~nservices:1 ~rate:100_000. ()
  in
  let static_hot =
    run_stack ~stack:`Static ~ncores:4 ~nservices:1 ~rate:100_000. ()
  in
  checkb
    (Printf.sprintf "static p50 %d within 20%% of lauberhorn %d"
       (p50 static_hot) (p50 lau_hot))
    true
    (abs (p50 static_hot - p50 lau_hot) * 5 <= p50 lau_hot);
  (* Dynamic skewed mix: without OS integration the static split's tail
     explodes even though the fast path is identical. *)
  let lau_dyn =
    run_stack ~stack:(`Lauberhorn Lauberhorn.Sched_mirror.Push) ~ncores:8
      ~nservices:32 ~rate:1_000_000. ~zipf_s:1.6 ~min_workers:0 ()
  in
  let static_dyn =
    run_stack ~stack:`Static ~ncores:8 ~nservices:32 ~rate:1_000_000.
      ~zipf_s:1.6 ()
  in
  checkb
    (Printf.sprintf "dynamic tail: static %d >> lauberhorn %d"
       (p99 static_dyn) (p99 lau_dyn))
    true
    (p99 static_dyn > 3 * p99 lau_dyn)

(* E13: under 5% wire loss in each direction, every stack still
   completes every RPC — the client's retry layer masks the loss — and
   the retransmit counter shows the recovery actually ran. *)
let test_lossy_runs_complete () =
  let plan =
    Fault.Plan.make ~seed:9 ~wire:(Fault.Plan.link ~drop:0.05 ()) ()
  in
  List.iter
    (fun flavour ->
      let { Experiments.Common.m; _ } =
        Experiments.Common.lossy_run ~ncores:4 ~rate:50_000.
          ~horizon:(Sim.Units.ms 5) ~plan flavour
      in
      let name = Experiments.Common.flavour_name flavour in
      checkb (name ^ ": sent some") true (m.Experiments.Common.sent > 0);
      checki
        (name ^ ": all completed")
        m.Experiments.Common.sent m.Experiments.Common.completed;
      checkb
        (name ^ ": retransmits nonzero")
        true
        (Experiments.Common.counter m "retransmits" > 0))
    [
      Experiments.Common.Linux Coherence.Interconnect.pcie_enzian;
      Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian;
      Experiments.Common.Lauberhorn
        (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    ]

(* Nothing reachable from the wire may raise: every malformed request
   is exactly one named drop, with the same name on every server
   flavour. A Blob length prefix that is hostile (negative after
   [Int64.to_int], or max_int so that the end offset overflows) is an
   [rx_bad_args]. *)
let test_malformed_requests_are_named_drops () =
  let flavours =
    [
      Experiments.Common.Lauberhorn
        (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
      Experiments.Common.Static Lauberhorn.Config.enzian;
      Experiments.Common.Linux Coherence.Interconnect.pcie_enzian;
      Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian;
    ]
  in
  let drops = [ "rx_bad_rpc"; "rx_no_service"; "rx_no_method"; "rx_bad_args" ] in
  let bad_magic b =
    Bytes.set b 0 '\x00';
    b
  in
  (* (case, expected drop, port offset, method id, body, mangling) *)
  let cases =
    [
      ("bad magic", "rx_bad_rpc", 0, 0, "\x01\x00", bad_magic);
      ("unknown method", "rx_no_method", 0, 9, "\x01\x00", Fun.id);
      ("unbound port", "rx_no_service", 1000, 0, "\x01\x00", Fun.id);
      ( "negative length prefix", "rx_bad_args", 0, 0,
        "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", Fun.id );
      ( "overflowing length prefix", "rx_bad_args", 0, 0,
        "\xff\xff\xff\xff\xff\xff\xff\xff\x3f", Fun.id );
    ]
  in
  List.iter
    (fun flavour ->
      List.iter
        (fun (case, expected, port_offset, method_id, body, mangle) ->
          let setup = Workload.Scenario.echo_fleet ~n:1 () in
          let server = Experiments.Common.make_server ~ncores:4 flavour setup in
          let wire =
            {
              Rpc.Wire_format.rpc_id = 1;
              service_id = Workload.Scenario.service_id_of setup ~service_idx:0;
              method_id;
              kind = Rpc.Wire_format.Request;
              ctx = None;
              body = Bytes.of_string body;
            }
          in
          let frame =
            Net.Frame.make
              ~src:(Harness.Traffic.client_endpoint ())
              ~dst:
                (Harness.Traffic.server_endpoint
                   ~port:
                     (Workload.Scenario.port_of setup ~service_idx:0
                     + port_offset))
              (mangle (Rpc.Wire_format.encode wire))
          in
          let driver = server.Experiments.Common.driver in
          driver.Harness.Driver.ingress frame;
          Sim.Engine.run server.Experiments.Common.engine
            ~until:(Sim.Units.ms 1);
          List.iter
            (fun drop ->
              checki
                (Printf.sprintf "%s, %s: %s"
                   (Experiments.Common.flavour_name flavour)
                   case drop)
                (if String.equal drop expected then 1 else 0)
                (Sim.Counter.value
                   (Sim.Counter.counter driver.Harness.Driver.counters drop)))
            drops)
        cases)
    flavours

(* ---------- the cross-stack differential oracle ----------

   The paper changes where and how fast an RPC is received, never what
   it computes (Figure 5 compares receive paths for the same RPCs). So
   one stream of frames through every flavour must answer the same:
   each step's replies (rpc id, kind and body bytes) and the named drop
   counters it moved. Steps run one at a time, each to quiescence, so
   a counter that moves belongs to its step, and each frame of a step
   ends in a reply or in exactly one named drop. Some steps write
   hostile 64-bit ids straight into the header bytes; [id_edge_holds]
   says what every flavour must answer to those. *)

let oracle_flavours =
  [
    Experiments.Common.Lauberhorn
      (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    Experiments.Common.Static Lauberhorn.Config.enzian;
    Experiments.Common.Linux Coherence.Interconnect.pcie_enzian;
    Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian;
  ]

let oracle_drops = [ "rx_bad_rpc"; "rx_no_service"; "rx_no_method"; "rx_bad_args" ]
let oracle_service = 100
let oracle_port = 7000

(* Bodies around the 64 B line, the ~4 KiB crossover and the 60 KiB
   DMA path. *)
let oracle_sizes = [| 64; 4000; 60 * 1024 |]

(* The rpc id field of the wire header: its eight bytes from 12. *)
let wire_id b = Bytes.get_int64_be b 12
let set_wire_id b id = Bytes.set_int64_be b 12 id

type step_kind =
  | Valid
  | Bad_magic
  | No_method
  | Bad_args
  | Unbound
  | Bad_unbound  (* a bad header on an unbound port *)
  | Hostile_id  (* an id outside [0, 2^62): the top two bits not both clear *)
  | Alias  (* a hostile id and, at once, the in-range id it truncates to *)
  | Max_id  (* 2^62 - 1, the largest id in range *)

type step = { what : step_kind; frames : Net.Frame.t list }

let step_name = function
  | Valid -> "valid"
  | Bad_magic -> "bad magic"
  | No_method -> "unknown method"
  | Bad_args -> "bad args"
  | Unbound -> "unbound port"
  | Bad_unbound -> "bad header, unbound port"
  | Hostile_id -> "hostile id"
  | Alias -> "hostile id aliasing a call"
  | Max_id -> "largest id"

(* One service whose method 0 echoes a drawn schema's value padded by
   a blob: the reply is the request's value, re-encoded by the stack. *)
let oracle_setup schema =
  let m =
    Rpc.Interface.method_def ~id:0 ~name:"mirror" ~request:schema
      ~response:schema Fun.id
  in
  {
    Workload.Scenario.defs =
      [ Rpc.Interface.service ~id:oracle_service ~name:"oracle" [ m ] ];
    ports = [| oracle_port |];
  }

let oracle_frame ?(port = oracle_port) ~id ~method_id body =
  let payload =
    Rpc.Wire_format.encode_body ~kind:Rpc.Wire_format.Request ~rpc_id:0
      ~service_id:oracle_service ~method_id body
  in
  set_wire_id payload id;
  Net.Frame.make
    ~src:(Harness.Traffic.client_endpoint ())
    ~dst:(Harness.Traffic.server_endpoint ~port)
    payload

(* A value of the drawn schema, padded by a blob to one of the sizes. *)
let draw_body rng inner =
  let v = Rpc.Schema.arbitrary inner rng ~size_hint:32 in
  let target = oracle_sizes.(Sim.Rng.int rng ~bound:(Array.length oracle_sizes)) in
  let bare =
    Rpc.Codec.encoded_size (Rpc.Value.Tuple [ v; Rpc.Value.Blob Bytes.empty ])
  in
  Rpc.Codec.encode
    (Rpc.Value.Tuple
       [ v; Rpc.Value.Blob (Bytes.make (max 0 (target - bare)) 'p') ])

let id_range = Int64.shift_left 1L 62

(* 2^62 plus a little, the sign bit set, or random bits above 2^62. *)
let hostile_id rng =
  let small = Int64.of_int (Sim.Rng.int rng ~bound:16) in
  match Sim.Rng.int rng ~bound:3 with
  | 0 -> Int64.add id_range small
  | 1 -> Int64.logor Int64.min_int small
  | _ -> Int64.logor id_range (Sim.Rng.bits64 rng)

let draw_step rng inner ~id =
  let body = draw_body rng inner in
  let one ?port ?(method_id = 0) ?(mangle = ignore) ?(id = id) what body =
    let f = oracle_frame ?port ~id ~method_id body in
    mangle f.Net.Frame.payload;
    { what; frames = [ f ] }
  in
  let bad_magic b = Bytes.set b 0 '\x00' in
  match Sim.Rng.int rng ~bound:13 with
  | 10 -> one Hostile_id ~id:(hostile_id rng) body
  | 11 ->
      let h = hostile_id rng in
      let low = Int64.logand h (Int64.pred id_range) in
      {
        what = Alias;
        frames =
          [
            oracle_frame ~id:h ~method_id:0 body;
            oracle_frame ~id:low ~method_id:0 body;
          ];
      }
  | 12 -> one Max_id ~id:(Int64.pred id_range) body
  | 0 -> one Bad_magic ~mangle:bad_magic body
  | 1 -> one No_method ~method_id:(1 + Sim.Rng.int rng ~bound:0xfffe) body
  | 2 ->
      (* cut short, or random bytes in place of the body *)
      let bad =
        if Sim.Rng.int rng ~bound:2 = 0 then
          Bytes.sub body 0 (Sim.Rng.int rng ~bound:(Bytes.length body))
        else Wire_gen.random_wire_bytes rng (1 + Sim.Rng.int rng ~bound:32)
      in
      one Bad_args bad
  | 3 -> one Unbound ~port:(oracle_port + 1000) body
  | 4 -> one Bad_unbound ~port:(oracle_port + 1000) ~mangle:bad_magic body
  | _ -> one Valid body

type outcome = {
  replies : (int64 * string * string) list;  (* id, kind, body *)
  drops : string list;
}

let pp_outcome o =
  String.concat "; "
    (List.map
       (fun (id, kind, body) ->
         Printf.sprintf "reply %Ld %s %d B" id kind (String.length body))
       o.replies
    @ o.drops)

(* The one known divergence, written in: Linux finds the socket by port
   before it reads the RPC header, so a bad header on an unbound port
   is [rx_no_service] there and [rx_bad_rpc] on every other flavour. *)
let canonical flavour what o =
  match (flavour, what) with
  | Experiments.Common.Linux _, Bad_unbound ->
      {
        o with
        drops =
          List.map
            (fun d -> if String.equal d "rx_no_service" then "rx_bad_rpc" else d)
            o.drops;
      }
  | _ -> o

let run_oracle flavour schema steps =
  let got = ref [] in
  let server =
    Experiments.Common.make_server ~ncores:4 ~egress:(fun f -> got := f :: !got)
      flavour (oracle_setup schema)
  in
  let driver = server.Experiments.Common.driver in
  let engine = server.Experiments.Common.engine in
  let count d =
    Sim.Counter.value (Sim.Counter.counter driver.Harness.Driver.counters d)
  in
  List.map
    (fun step ->
      got := [];
      let before = List.map count oracle_drops in
      List.iter driver.Harness.Driver.ingress step.frames;
      Sim.Engine.run engine ~until:(Sim.Engine.now engine + Sim.Units.ms 2);
      let drops =
        List.concat
          (List.map2
             (fun d b -> List.init (count d - b) (fun _ -> d))
             oracle_drops before)
      in
      let replies =
        List.sort compare
          (List.map
             (fun f ->
               let p = f.Net.Frame.payload in
               let off = Rpc.Wire_format.body_offset p in
               let kind =
                 match Rpc.Wire_format.kind p with
                 | Rpc.Wire_format.Request -> "request"
                 | Rpc.Wire_format.Response -> "response"
                 | Rpc.Wire_format.Error_reply c -> Printf.sprintf "error %d" c
               in
               (wire_id p, kind, Bytes.sub_string p off (Bytes.length p - off)))
             !got)
      in
      canonical flavour step.what { replies; drops })
    steps

let oracle_case seed =
  let rng = Sim.Rng.create ~seed in
  let inner = Wire_gen.schema_of_depth rng in
  let steps =
    List.init 8 (fun i -> draw_step rng inner ~id:(Int64.of_int (i + 1)))
  in
  (Rpc.Schema.Tuple [ inner; Rpc.Schema.Blob ], steps)

(* What every flavour must answer to an id at the edge of the range:
   outside [0, 2^62) a named [rx_bad_rpc] drop that neither raises nor
   answers (or disturbs) the in-range call it would truncate to, and at
   2^62 - 1 a reply carrying that id. *)
let id_edge_holds step o =
  let replied_to id =
    match o.replies with
    | [ (rid, "response", _) ] -> Int64.equal rid id
    | _ -> false
  in
  match (step.what, step.frames) with
  | Hostile_id, _ -> o.replies = [] && o.drops = [ "rx_bad_rpc" ]
  | Alias, [ _; valid ] ->
      o.drops = [ "rx_bad_rpc" ]
      && replied_to (wire_id valid.Net.Frame.payload)
  | Max_id, _ -> o.drops = [] && replied_to (Int64.pred id_range)
  | _ -> true

let qcheck_cross_stack_oracle =
  QCheck.Test.make ~count:40 ~name:"every flavour answers alike"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let schema, steps = oracle_case seed in
      let runs =
        List.map (fun fl -> (fl, run_oracle fl schema steps)) oracle_flavours
      in
      let _, reference = List.hd runs in
      List.iter
        (fun (fl, outcomes) ->
          List.iteri
            (fun i ((step, o), r) ->
              let name = Experiments.Common.flavour_name fl in
              if List.length o.replies + List.length o.drops
                 <> List.length step.frames
              then
                QCheck.Test.fail_reportf
                  "%s, step %d (%s): %d frames but [%s]" name i
                  (step_name step.what) (List.length step.frames)
                  (pp_outcome o);
              if not (id_edge_holds step o) then
                QCheck.Test.fail_reportf "%s, step %d (%s): [%s]" name i
                  (step_name step.what) (pp_outcome o);
              if o <> r then
                QCheck.Test.fail_reportf
                  "%s, step %d (%s): [%s], but %s answers [%s]" name i
                  (step_name step.what) (pp_outcome o)
                  (Experiments.Common.flavour_name (List.hd oracle_flavours))
                  (pp_outcome r))
            (List.combine (List.combine steps outcomes) reference))
        runs;
      true)

(* Every experiment section is gated: the ids in [Sections.all] are
   unique and are exactly the snapshots in test/baseline, which the
   check gate byte-diffs against each section's output. *)
let test_every_section_has_a_snapshot () =
  let ids = List.map fst Experiments.Sections.all in
  let sorted = List.sort String.compare ids in
  checki "section ids are unique"
    (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  let snapshots =
    Sys.readdir "baseline" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".txt")
    |> List.map Filename.chop_extension
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "sections = test/baseline snapshots"
    sorted snapshots

let () =
  Alcotest.run "integration"
    [
      ( "comparative",
        [
          Alcotest.test_case "latency ordering (E6)" `Slow
            test_latency_ordering;
          Alcotest.test_case "energy: no spinning (E8)" `Slow
            test_energy_no_spinning;
          Alcotest.test_case "tryagain timeout monotone (E5)" `Slow
            test_tryagain_timeout_monotone;
          Alcotest.test_case "mirror push beats query (E3)" `Slow
            test_mirror_push_beats_query;
          Alcotest.test_case "dynamic skewed services (E7)" `Slow
            test_dynamic_skewed_services;
          Alcotest.test_case "large payloads complete (E4)" `Slow
            test_large_payloads_still_complete;
          Alcotest.test_case "static-split ablation" `Slow
            test_static_ablation;
          Alcotest.test_case "lossy runs complete (E13)" `Slow
            test_lossy_runs_complete;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "malformed requests are named drops" `Quick
            test_malformed_requests_are_named_drops;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x0dd |])
            qcheck_cross_stack_oracle;
        ] );
      ( "sections",
        [
          Alcotest.test_case "every section has a snapshot" `Quick
            test_every_section_has_a_snapshot;
        ] );
    ]
