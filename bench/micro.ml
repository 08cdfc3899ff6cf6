(* E11 — Bechamel microbenchmarks of the simulator's hot paths.

   These measure real wall-clock costs of the repository's own code
   (not simulated time): the event heap, checksums, the RPC codec, the
   Toeplitz hash, CONTROL-line encode/decode, and a full model-check.
   One [Test.make] per row.

   Besides the printed table, each run leaves its rows in [json_rows]
   so [main.ml] can emit the machine-readable BENCH_1.json used to
   track the zero-allocation hot-path numbers across commits. *)

open Bechamel
open Toolkit

let test_event_heap =
  Test.make ~name:"event_heap push+pop x1000"
    (Staged.stage (fun () ->
         let h = Sim.Event_heap.create () in
         for i = 0 to 999 do
           ignore (Sim.Event_heap.push h ~time:((i * 7919) mod 1000) i)
         done;
         let rec drain () =
           match Sim.Event_heap.pop h with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()))

(* Timer-dominated workload: the retransmit-timer pattern where almost
   every armed timer is cancelled before it fires (ack arrives first).
   8192 arms, half cancelled, half fire; each cancel removes its entry
   from the heap at once. *)
let test_timer_churn_heap =
  Test.make ~name:"timer arm+cancel x8192 (heap)"
    (Staged.stage (fun () ->
         let h = Sim.Event_heap.create () in
         let handles =
           Array.init 8192 (fun i ->
               Sim.Event_heap.push h ~time:(1 + ((i * 7919) mod 16_384)) i)
         in
         Array.iteri
           (fun i hd -> if i mod 2 = 0 then Sim.Event_heap.cancel h hd)
           handles;
         let rec drain () =
           match Sim.Event_heap.pop h with Some _ -> drain () | None -> ()
         in
         drain ()))

(* Windowed (sharded) stepping tax: the same periodic event chain run
   directly on an engine, then through a 1-shard [Shard_engine] — the
   delta is the per-window plan/merge/complete bookkeeping that
   LAUBERHORN_SHARDS>1 adds around the inner engine. *)
let periodic_chain e =
  let rec tick () =
    if Sim.Engine.now e < 100_000 then
      ignore (Sim.Engine.schedule_after e ~after:100 tick)
  in
  ignore (Sim.Engine.schedule_after e ~after:100 tick)

let test_engine_direct_stepping =
  Test.make ~name:"engine run 1000 events (direct)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         periodic_chain e;
         Sim.Engine.run e ~until:100_000))

let test_sharded_stepping =
  Test.make ~name:"engine run 1000 events (sharded windows)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         periodic_chain e;
         let t =
           Sim.Shard_engine.create ~lookahead:(Sim.Units.us 50) [| e |]
         in
         Sim.Shard_engine.run t ~until:100_000))

(* The per-shard PDES profiler tax when it is armed: the same sharded
   window run with an [Obs.Profiler] installed, so every window records
   its event count and outbox depth. Compare against the row above —
   the unarmed row doubles as proof the empty hook slot (one
   load-and-branch per window) costs nothing. *)
let test_sharded_stepping_profiled =
  Test.make ~name:"engine run 1000 events (sharded, profiler armed)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         periodic_chain e;
         let t =
           Sim.Shard_engine.create ~lookahead:(Sim.Units.us 50) [| e |]
         in
         let prof = Obs.Profiler.create ~shards:1 in
         Obs.Profiler.install prof t;
         Sim.Shard_engine.run t ~until:100_000))

let test_checksum =
  let buf = Bytes.init 1500 (fun i -> Char.chr (i land 0xff)) in
  Test.make ~name:"internet checksum 1500B"
    (Staged.stage (fun () -> ignore (Net.Checksum.compute buf ~pos:0 ~len:1500)))

(* The pre-optimization 2-bytes-per-iteration sum, kept as a library
   entry point for property tests; benchmarked here so the word-wide
   speedup is visible in one table. *)
let test_checksum_bytewise =
  let buf = Bytes.init 1500 (fun i -> Char.chr (i land 0xff)) in
  Test.make ~name:"internet checksum 1500B (bytewise ref)"
    (Staged.stage (fun () ->
         ignore
           (Net.Checksum.finish
              (Net.Checksum.ones_complement_sum_bytewise buf ~pos:0 ~len:1500))))

let test_codec =
  let value =
    Rpc.Value.Tuple
      [
        Rpc.Value.Int 123456789L;
        Rpc.Value.str "hello world, this is a string field";
        Rpc.Value.List (List.init 16 (fun i -> Rpc.Value.int i));
      ]
  in
  let schema =
    Rpc.Schema.Tuple
      [ Rpc.Schema.Int; Rpc.Schema.Str; Rpc.Schema.List Rpc.Schema.Int ]
  in
  let encoded = Rpc.Codec.encode value in
  Test.make ~name:"rpc codec encode+decode"
    (Staged.stage (fun () ->
         ignore (Rpc.Codec.encode value);
         ignore (Rpc.Codec.decode schema encoded)))

(* The cross-fabric trace-context extension on the RPC wire header:
   the no-ctx row is the path every untraced message takes (the flag
   bit stays clear, the encoding is byte-identical to the
   pre-extension format), the with-ctx row adds the 16 context bytes a
   traced frame carries across the switch. *)
let wire_bench_msg ctx =
  let m =
    Rpc.Wire_format.request ~rpc_id:42L ~service_id:7 ~method_id:0
      (Rpc.Value.Blob (Bytes.make 64 'w'))
  in
  Rpc.Wire_format.with_ctx m ctx

let test_wire_noctx =
  let msg = wire_bench_msg None in
  Test.make ~name:"wire header encode+decode (no ctx)"
    (Staged.stage (fun () ->
         match Rpc.Wire_format.decode (Rpc.Wire_format.encode msg) with
         | Ok v -> ignore (Sys.opaque_identity v)
         | Error _ -> assert false))

let test_wire_ctx =
  let msg =
    wire_bench_msg
      (Some
         (Obs.Context.to_bytes
            { Obs.Context.trace = 42L; parent = 3; origin = 8 }))
  in
  Test.make ~name:"wire header encode+decode (with ctx)"
    (Staged.stage (fun () ->
         match Rpc.Wire_format.decode (Rpc.Wire_format.encode msg) with
         | Ok v -> ignore (Sys.opaque_identity v)
         | Error _ -> assert false))

let test_toeplitz =
  let tuple = Bytes.init 12 (fun i -> Char.chr (i * 17 land 0xff)) in
  Test.make ~name:"toeplitz hash (12B tuple)"
    (Staged.stage (fun () ->
         ignore (Nic.Rss.toeplitz_hash ~key:Nic.Rss.default_key tuple)))

let test_ctrl_line =
  let msg =
    Lauberhorn.Message.Request
      {
        Lauberhorn.Message.rpc_id = 42L;
        service_id = 7;
        method_id = 0;
        code_ptr = 0x4000_0000L;
        data_ptr = 0x7000_0000L;
        total_args = 64;
        inline_args = Net.Slice.of_bytes (Bytes.make 64 'a');
        aux_count = 0;
        via_dma = false;
      }
  in
  Test.make ~name:"CONTROL line encode+decode"
    (Staged.stage (fun () ->
         let line = Lauberhorn.Message.encode ~line_bytes:128 msg in
         ignore (Lauberhorn.Message.decode line)))

let test_frame =
  let src = Harness.Traffic.client_endpoint () in
  let dst = Harness.Traffic.server_endpoint ~port:7000 in
  let payload = Bytes.make 64 'x' in
  Test.make ~name:"frame encode+parse (64B UDP)"
    (Staged.stage (fun () ->
         let f = Net.Frame.make ~src ~dst payload in
         ignore (Net.Frame.parse (Net.Frame.encode f))))

(* The zero-copy hot path: one pooled buffer reused across runs,
   [encode_into] + [parse_slice] with no per-packet Bytes.create /
   Bytes.sub. Compare against "frame encode+parse (64B UDP)" above. *)
let test_pooled_frame =
  let src = Harness.Traffic.client_endpoint () in
  let dst = Harness.Traffic.server_endpoint ~port:7000 in
  let frame = Net.Frame.make ~src ~dst (Bytes.make 64 'x') in
  let pool = Net.Pool.create ~prealloc:1 ~buffer_bytes:2048 () in
  Test.make ~name:"pooled frame encode_into+parse_slice (64B UDP)"
    (Staged.stage (fun () ->
         let buf = Net.Pool.acquire pool in
         let wire = Net.Frame.encode_into frame buf in
         (match Net.Frame.parse_slice wire with
         | Ok v -> ignore (Sys.opaque_identity v.Net.Frame.payload)
         | Error _ -> assert false);
         Net.Pool.release pool buf))

(* The sanitizer tax when it is armed: the same pooled hot path with a
   [Sanitize.Pool_watch] attached, so every acquire is identity-tracked
   and every release poisons the buffer. Compare against the row above:
   the delta is what LAUBERHORN_SANITIZE=1 costs per packet, and the
   row above doubles as the proof that the disarmed hooks (a single
   [None] branch per crossing) shifted nothing. *)
let test_pooled_frame_sanitized =
  let src = Harness.Traffic.client_endpoint () in
  let dst = Harness.Traffic.server_endpoint ~port:7000 in
  let frame = Net.Frame.make ~src ~dst (Bytes.make 64 'x') in
  let pool = Net.Pool.create ~prealloc:1 ~buffer_bytes:2048 () in
  let z = Sanitize.create ~mode:Sanitize.Collect (Sim.Engine.create ()) in
  let _w = Sanitize.Pool_watch.attach z pool in
  Test.make ~name:"pooled frame encode_into+parse_slice (sanitized)"
    (Staged.stage (fun () ->
         let buf = Net.Pool.acquire pool in
         let wire = Net.Frame.encode_into frame buf in
         (match Net.Frame.parse_slice wire with
         | Ok v -> ignore (Sys.opaque_identity v.Net.Frame.payload)
         | Error _ -> assert false);
         Net.Pool.release pool buf))

(* The observability tax when nobody is watching: every stack hot path
   now carries span-emission calls, which must compile down to a single
   load-and-branch while the tracer is disabled (the default). The
   enabled row shows what turning tracing on actually buys into. *)
let test_span_disabled =
  let tr = Obs.Tracer.create () in
  let trk = Obs.Tracer.track tr "bench" in
  Test.make ~name:"span emit x100 (tracing disabled)"
    (Staged.stage (fun () ->
         for i = 1 to 100 do
           Obs.Tracer.stage tr ~rpc:7L ~track:trk ~name:"s" i
         done))

let test_span_enabled =
  let tr = Obs.Tracer.create () in
  let trk = Obs.Tracer.track tr "bench" in
  Obs.Tracer.enable tr;
  Test.make ~name:"span emit x100 (tracing enabled)"
    (Staged.stage (fun () ->
         Obs.Tracer.clear tr;
         Obs.Tracer.rpc_begin tr ~rpc:7L ~track:trk 0;
         for i = 1 to 100 do
           Obs.Tracer.stage tr ~rpc:7L ~track:trk ~name:"s" i
         done;
         Obs.Tracer.rpc_end tr ~rpc:7L 101))

(* The fault-seam tax when no fault plan is armed: a full ToR crossbar
   sweep — 64 frames fanned over 8 ports, ingress FIFO → crossbar →
   egress FIFO → transmitter — with every per-port fault predicate left
   at its [None]/all-up default. The per-frame fault checks must stay a
   single load-and-branch, so this row must not move when the switch
   grows wedge/brownout/partition seams. *)
let test_switch_sweep =
  let src = Harness.Traffic.client_endpoint () in
  let dst = Harness.Traffic.server_endpoint ~port:7000 in
  let frames =
    Array.init 64 (fun i ->
        ignore i;
        Net.Frame.make ~src ~dst (Bytes.make 64 'x'))
  in
  Test.make ~name:"switch crossbar sweep (64 frames, 8 ports, no fault)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         let ports =
           Array.make 8
             {
               Cluster.Switch.latency = Sim.Units.us 1;
               tx = Sim.Units.ns 100;
             }
         in
         let delivered = ref 0 in
         let sw =
           Cluster.Switch.create e ~ports
             ~route:(fun _ -> Some 7)
             ~deliver:(fun ~port:_ _ -> incr delivered)
             ()
         in
         for i = 0 to 63 do
           let port = i mod 7 in
           let f = frames.(i) in
           ignore
             (Sim.Engine.schedule_at e
                ~at:(Sim.Units.ns (10 * i))
                (fun () -> Cluster.Switch.ingress sw ~port f))
         done;
         Sim.Engine.run e ~until:(Sim.Units.ms 1);
         assert (!delivered = 64)))

let test_modelcheck =
  Test.make ~name:"model-check protocol (3 packets)"
    (Staged.stage (fun () ->
         ignore (Protocheck.Lauberhorn_model.check ~packets:3 ())))

(* The steering tax, per dispatch decision, across the three shipped
   policies: no program (the NIC's raw RSS indirection lookup — what
   every packet paid before this subsystem existed), the verified
   identity program (rss_all: one guard scan, then the same lookup),
   and key-hash affinity (gather 4 payload bytes, Toeplitz, lane mod —
   cheaper in wall-clock than the 12-byte 5-tuple hash, though its
   *simulated* charge is the verified static cost, not this number).
   The off row is the zero-cost-when-off host baseline. *)
let steer_frames =
  Array.init 64 (fun i ->
      let src = Harness.Traffic.client_endpoint ~idx:(i mod 16) () in
      let dst = Harness.Traffic.server_endpoint ~port:7000 in
      let b = Bytes.make 64 'k' in
      Bytes.set b 21 (Char.chr (i land 0xff));
      Net.Frame.make ~src ~dst b)

let steer_rss_tbl = Nic.Rss.create ~queues:8 ()

let compiled_steer prog =
  let env = { Nic.Steer_verify.default_env with queues = 8; workers = 8 } in
  match Nic.Steer_verify.verify ~env prog with
  | Ok v ->
      Nic.Steer.compile
        ~rss:(Nic.Rss.queue_of_frame steer_rss_tbl)
        (Nic.Steer_verify.program v)
  | Error _ -> assert false

let test_steer_off =
  Test.make ~name:"steering decision x64 (off: raw RSS lookup)"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         for i = 0 to 63 do
           acc := !acc + Nic.Rss.queue_of_frame steer_rss_tbl steer_frames.(i)
         done;
         ignore !acc))

let test_steer_rss_prog =
  let f = compiled_steer Nic.Steer.rss_all in
  Test.make ~name:"steering decision x64 (verified rss_all)"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         for i = 0 to 63 do
           acc := !acc + f steer_frames.(i)
         done;
         ignore !acc))

let test_steer_affinity =
  let f =
    compiled_steer (Nic.Steer.key_affinity ~key_off:21 ~key_len:4 ~lanes:8 ())
  in
  Test.make ~name:"steering decision x64 (verified key_affinity)"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         for i = 0 to 63 do
           acc := !acc + f steer_frames.(i)
         done;
         ignore !acc))

let tests =
  [
    test_event_heap;
    test_timer_churn_heap;
    test_engine_direct_stepping;
    test_sharded_stepping;
    test_sharded_stepping_profiled;
    test_checksum;
    test_checksum_bytewise;
    test_codec;
    test_wire_noctx;
    test_wire_ctx;
    test_toeplitz;
    test_ctrl_line;
    test_frame;
    test_pooled_frame;
    test_pooled_frame_sanitized;
    test_switch_sweep;
    test_span_disabled;
    test_span_enabled;
    test_modelcheck;
    test_steer_off;
    test_steer_rss_prog;
    test_steer_affinity;
  ]

let json_rows : (string * float * float) list ref = ref []

let run () =
  Experiments.Common.section "E11: Bechamel microbenchmarks (real wall-clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  (* Pinned quota + GC stabilization: each row gets the same measuring
     budget, and a fresh minor heap before its samples are taken, so a
     prior row's garbage can't show up as noise in this one. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true
      ~compaction:false ~kde:(Some 1000) ()
  in
  let measured =
    List.concat_map
      (fun test ->
        Gc.minor ();
        let results =
          Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ])
        in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols acc ->
            (* [make_grouped ~name:""] prefixes rows with "/". *)
            let name =
              if String.length name > 0 && name.[0] = '/' then
                String.sub name 1 (String.length name - 1)
              else name
            in
            let time =
              match Analyze.OLS.estimates ols with
              | Some (t :: _) -> t
              | Some [] | None -> Float.nan
            in
            let r2 =
              match Analyze.OLS.r_square ols with
              | Some r -> r
              | None -> Float.nan
            in
            (name, time, r2) :: acc)
          analysis [])
      tests
  in
  json_rows := measured;
  Experiments.Common.table ~header:[ "microbenchmark"; "time/run"; "r²" ]
    (List.map
       (fun (name, time, r2) ->
         [ name; Printf.sprintf "%.1f ns" time; Printf.sprintf "%.4f" r2 ])
       measured)
