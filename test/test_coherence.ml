(* Tests for the coherence substrate: interconnect profiles, the MESI
   directory, and the deferred-fill home agent. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Interconnect ---------- *)

let test_profiles_sane () =
  List.iter
    (fun p ->
      checkb "positive rtt" true (Coherence.Interconnect.coherent_rtt p > 0);
      checkb "positive line" true
        (p.Coherence.Interconnect.cache_line_bytes > 0);
      checkb "dma bw" true (p.Coherence.Interconnect.dma_bandwidth_gbps > 0.))
    Coherence.Interconnect.all

let test_figure2_shape () =
  (* The paper's Figure 2 ordering: coherent ECI interaction is much
     faster than a DMA round trip on the same machine. *)
  let eci = Coherence.Interconnect.eci in
  let pcie = Coherence.Interconnect.pcie_enzian in
  checkb "eci rtt < pcie mmio rtt" true
    (Coherence.Interconnect.coherent_rtt eci
     < 2 * pcie.Coherence.Interconnect.mmio_read);
  checkb "modern dma faster than enzian dma" true
    (Coherence.Interconnect.pcie_modern.Coherence.Interconnect.dma_write
     < pcie.Coherence.Interconnect.dma_write)

let test_line_transfer_pipelines () =
  let p = Coherence.Interconnect.eci in
  let one = Coherence.Interconnect.line_transfer p ~bytes:64 in
  let two = Coherence.Interconnect.line_transfer p ~bytes:200 in
  checki "one line = rtt" (Coherence.Interconnect.coherent_rtt p) one;
  let per_line =
    int_of_float
      (Float.round
         (float_of_int (p.Coherence.Interconnect.cache_line_bytes * 8)
         /. p.Coherence.Interconnect.coherent_bandwidth_gbps))
  in
  checki "second line streams at coherent bandwidth" (one + per_line) two;
  checki "zero bytes free" 0 (Coherence.Interconnect.line_transfer p ~bytes:0)

let test_dma_transfer_scales () =
  let p = Coherence.Interconnect.eci in
  let small = Coherence.Interconnect.dma_transfer p ~bytes:64 in
  let big = Coherence.Interconnect.dma_transfer p ~bytes:65536 in
  checkb "latency floor" true (small >= p.Coherence.Interconnect.dma_write);
  (* 64 KiB at 100 Gb/s is ~5.2 us of streaming. *)
  checkb "bandwidth term" true (big > small + 5_000)

let test_crossover_band () =
  (* Paper section 6: on Enzian the DMA/cache-line crossover is ~4 KiB. *)
  let p = Coherence.Interconnect.eci in
  let line_faster n =
    Coherence.Interconnect.line_transfer p ~bytes:n
    < Coherence.Interconnect.dma_transfer p ~bytes:n
  in
  checkb "64B: lines win" true (line_faster 64);
  checkb "1KiB: lines win" true (line_faster 1024);
  checkb "2KiB: lines win" true (line_faster 2048);
  checkb "16KiB: dma wins" false (line_faster 16384);
  checkb "64KiB: dma wins" false (line_faster 65536)

(* ---------- Home agent ---------- *)

let make_ha ?(timeout = Sim.Units.ms 15) () =
  let e = Sim.Engine.create () in
  let ha = Coherence.Home_agent.create e Coherence.Interconnect.eci ~timeout () in
  (e, ha)

let test_ha_staged_then_load () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  Coherence.Home_agent.stage ha line (Bytes.of_string "data");
  checkb "staged" true (Coherence.Home_agent.stage_pending ha line);
  let got = ref None in
  let t0 = Sim.Engine.now e in
  Coherence.Home_agent.cpu_load ha line (fun fill ->
      got := Some (fill, Sim.Engine.now e - t0));
  Sim.Engine.run e;
  (match !got with
  | Some (Coherence.Home_agent.Data d, dt) ->
      check Alcotest.string "payload" "data" (Bytes.to_string d);
      checki "one rtt"
        (Coherence.Interconnect.coherent_rtt Coherence.Interconnect.eci)
        dt
  | _ -> Alcotest.fail "no data fill");
  checkb "staged consumed" false (Coherence.Home_agent.stage_pending ha line);
  checki "fills" 1 (Coherence.Home_agent.fills ha)

let test_ha_parked_load_completed_by_stage () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  let parked_seen = ref false in
  Coherence.Home_agent.set_on_load ha line (fun ~served ->
      if not served then parked_seen := true);
  let got = ref None in
  Coherence.Home_agent.cpu_load ha line (fun fill -> got := Some fill);
  (* Stage arrives 10 us after the load parks. *)
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 10) (fun () ->
         Coherence.Home_agent.stage ha line (Bytes.of_string "late")));
  Sim.Engine.run e ~until:(Sim.Units.ms 1);
  checkb "park observed" true !parked_seen;
  (match !got with
  | Some (Coherence.Home_agent.Data d) ->
      check Alcotest.string "late data" "late" (Bytes.to_string d)
  | _ -> Alcotest.fail "expected data");
  checki "no tryagain" 0 (Coherence.Home_agent.tryagains ha)

let test_ha_timeout_tryagain () =
  let e, ha = make_ha ~timeout:(Sim.Units.us 100) () in
  let line = Coherence.Home_agent.alloc_line ha in
  let got = ref None in
  Coherence.Home_agent.cpu_load ha line (fun fill ->
      got := Some (fill, Sim.Engine.now e));
  Sim.Engine.run e;
  (match !got with
  | Some (Coherence.Home_agent.Tryagain, at) ->
      (* timeout + response latency *)
      checki "timing"
        (Sim.Units.us 100
        + Coherence.Interconnect.eci.Coherence.Interconnect.load_request
        + Coherence.Interconnect.eci.Coherence.Interconnect.load_response)
        at
  | _ -> Alcotest.fail "expected tryagain");
  checki "tryagains" 1 (Coherence.Home_agent.tryagains ha)

let test_ha_kick () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  let got = ref None in
  Coherence.Home_agent.cpu_load ha line (fun fill -> got := Some fill);
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 5) (fun () ->
         Coherence.Home_agent.kick ha line));
  Sim.Engine.run e ~until:(Sim.Units.ms 1);
  checkb "kicked to tryagain" true
    (!got = Some Coherence.Home_agent.Tryagain);
  (* The timeout timer must have been cancelled: no second fill. *)
  checki "single tryagain" 1 (Coherence.Home_agent.tryagains ha)

let test_ha_store_and_fetch_exclusive () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  let store_seen = ref None in
  Coherence.Home_agent.set_on_store ha line (fun b ->
      store_seen := Some (Bytes.to_string b, Sim.Engine.now e));
  Coherence.Home_agent.cpu_store ha line (Bytes.of_string "resp");
  Sim.Engine.run e;
  (match !store_seen with
  | Some ("resp", at) ->
      checki "store release latency"
        Coherence.Interconnect.eci.Coherence.Interconnect.store_release at
  | _ -> Alcotest.fail "store not observed");
  let fetched = ref None in
  Coherence.Home_agent.fetch_exclusive ha line (fun b -> fetched := Some b);
  Sim.Engine.run e;
  (match !fetched with
  | Some b -> check Alcotest.string "fetched" "resp" (Bytes.to_string b)
  | None -> Alcotest.fail "fetch failed");
  (* The CPU copy is invalidated by the fetch. *)
  let fetched2 = ref None in
  Coherence.Home_agent.fetch_exclusive ha line (fun b -> fetched2 := Some b);
  Sim.Engine.run e;
  checkb "second fetch empty" true
    (match !fetched2 with
    | Some b -> b == Coherence.Home_agent.no_copy
    | None -> false)

(* Once warm, a store followed by the device's fetch allocates nothing:
   the CPU's copy is the stored bytes themselves, and "no copy" is a
   sentinel, not an option. A fetch with no prior store, even of an
   empty line, still sees no data. *)
let test_ha_store_fetch_allocates_nothing () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  let data = Bytes.of_string "resp" in
  let got = ref Bytes.empty in
  let collect b = got := b in
  let round () =
    Coherence.Home_agent.cpu_store ha line data;
    Coherence.Home_agent.fetch_exclusive ha line collect;
    Sim.Engine.run e
  in
  for _ = 1 to 100 do round () done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do round () done;
  let words = Gc.minor_words () -. before in
  checkb "fetched the stored bytes" true (!got == data);
  (* The measurement itself may box a float or two. *)
  checkb (Printf.sprintf "%.0f words over 1000 rounds" words) true
    (words < 64.);
  Coherence.Home_agent.fetch_exclusive ha line collect;
  Sim.Engine.run e;
  checkb "no store, no data" true (!got == Coherence.Home_agent.no_copy);
  Coherence.Home_agent.cpu_store ha line Bytes.empty;
  Coherence.Home_agent.fetch_exclusive ha line collect;
  Sim.Engine.run e;
  checkb "an empty line is data" true
    (!got != Coherence.Home_agent.no_copy && Bytes.length !got = 0)

let test_ha_double_park_rejected () =
  let e, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  Coherence.Home_agent.cpu_load ha line (fun _ -> ());
  Coherence.Home_agent.cpu_load ha line (fun _ -> ());
  checkb "second park raises" true
    (try
       Sim.Engine.run e ~until:(Sim.Units.us 10);
       false
     with Invalid_argument _ -> true)

let test_ha_oversized_stage_rejected () =
  let _, ha = make_ha () in
  let line = Coherence.Home_agent.alloc_line ha in
  checkb "raises" true
    (try
       Coherence.Home_agent.stage ha line (Bytes.make 256 'x');
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "coherence"
    [
      ( "interconnect",
        [
          Alcotest.test_case "profiles sane" `Quick test_profiles_sane;
          Alcotest.test_case "figure-2 shape" `Quick test_figure2_shape;
          Alcotest.test_case "line transfer pipelines" `Quick
            test_line_transfer_pipelines;
          Alcotest.test_case "dma transfer scales" `Quick
            test_dma_transfer_scales;
          Alcotest.test_case "crossover band" `Quick test_crossover_band;
        ] );
      ( "home_agent",
        [
          Alcotest.test_case "staged then load" `Quick
            test_ha_staged_then_load;
          Alcotest.test_case "parked completed by stage" `Quick
            test_ha_parked_load_completed_by_stage;
          Alcotest.test_case "timeout tryagain" `Quick
            test_ha_timeout_tryagain;
          Alcotest.test_case "kick" `Quick test_ha_kick;
          Alcotest.test_case "store and fetch-exclusive" `Quick
            test_ha_store_and_fetch_exclusive;
          Alcotest.test_case "store and fetch allocate nothing" `Quick
            test_ha_store_fetch_allocates_nothing;
          Alcotest.test_case "double park rejected" `Quick
            test_ha_double_park_rejected;
          Alcotest.test_case "oversized stage rejected" `Quick
            test_ha_oversized_stage_rejected;
        ] );
    ]
