(* Seeded-regression suite for the steering DSL and its static
   verifier (lib/nic/steer.ml, steer_verify.ml).

   The rejection tests are the verifier's contract: each deliberately
   broken program must be rejected with a *diagnostic that names the
   defect and a concrete witness packet* — a future edit that silently
   weakens a check (coverage, disjointness, target ranges, cost,
   payload-prefix confinement, worker-pinning safety) fails here, not
   in review. The QCheck properties pin the semantic backbone: the
   first-match compiled evaluator coincides with the declarative
   match-all reference on every verified program, and [Rss.hash] is
   the one Toeplitz everyone shares. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let env = Nic.Steer_verify.default_env

let atom field lo hi = { Nic.Steer.field; lo; hi }

let prog ?default ?on_dead name rules =
  { Nic.Steer.name; rules; default; on_dead }

let rule guard target = { Nic.Steer.guard; target }

let mk_frame ?(src_ip = 0x0a000a0a) ?(dst_ip = 0x0a000001) ?(src_port = 5555)
    ?(dst_port = 7000) ?(len = 64) ?(fill = 'x') () =
  let src =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0a";
      ip = Net.Ip_addr.of_int src_ip;
      port = src_port;
    }
  in
  let dst =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:01";
      ip = Net.Ip_addr.of_int dst_ip;
      port = dst_port;
    }
  in
  Net.Frame.make ~src ~dst (Bytes.make len fill)

(* Assert rejection and that some diagnostic mentions [needle]. *)
let expect_reject ?(env = env) name p needle =
  match Nic.Steer_verify.verify ~env p with
  | Ok _ -> Alcotest.failf "%s: verifier accepted a broken program" name
  | Error diags ->
      let mentions d =
        let dl = String.lowercase_ascii d
        and nl = String.lowercase_ascii needle in
        let n = String.length nl and dn = String.length dl in
        let rec at i = i + n <= dn && (String.equal (String.sub dl i n) nl || at (i + 1)) in
        at 0
      in
      if not (List.exists mentions diags) then
        Alcotest.failf "%s: no diagnostic mentions %S in:\n%s" name needle
          (String.concat "\n" diags)

(* --- shipped programs verify --------------------------------------- *)

let test_builtins_verify () =
  List.iter
    (fun p ->
      match Nic.Steer_verify.verify ~env p with
      | Ok v ->
          let c = Nic.Steer_verify.cost v in
          checkb (p.Nic.Steer.name ^ " cost positive") true (c > 0);
          checkb
            (p.Nic.Steer.name ^ " within budget")
            true
            (c <= env.Nic.Steer_verify.cost_budget)
      | Error ds ->
          Alcotest.failf "builtin %s rejected:\n%s" p.Nic.Steer.name
            (String.concat "\n" ds))
    Nic.Steer.builtins

(* --- seeded rejections --------------------------------------------- *)

let test_reject_lossy () =
  (* dst_port 100..199 falls through with no default: packet loss. *)
  let p =
    prog "lossy"
      [
        rule [ atom Dst_port 0 99 ] (Queue 0);
        rule [ atom Dst_port 200 65_535 ] (Queue 1);
      ]
  in
  expect_reject "lossy" p "no rule matches the packet";
  expect_reject "lossy-witness" p "dst_port=100";
  expect_reject "lossy-loss" p "lost"

let test_reject_overlap () =
  (* dst_port 100..200 matches both rules: double dispatch. *)
  let p =
    prog ~default:Nic.Steer.Rss "dup"
      [
        rule [ atom Dst_port 0 200 ] (Queue 0);
        rule [ atom Dst_port 100 300 ] (Queue 1);
      ]
  in
  expect_reject "dup" p "rules 0 and 1 overlap";
  expect_reject "dup-witness" p "dst_port=150"

let test_reject_multifield_hole () =
  (* Quadrants of (length, dst_port) with one quadrant missing. *)
  let p =
    prog "quadrant"
      [
        rule [ atom Length 0 128; atom Dst_port 0 7_000 ] (Queue 0);
        rule [ atom Length 129 65_535; atom Dst_port 0 7_000 ] (Queue 1);
        rule [ atom Length 0 128; atom Dst_port 7_001 65_535 ] (Queue 2);
      ]
  in
  expect_reject "quadrant" p "no rule matches";
  expect_reject "quadrant-witness" p "length=129";
  (* ... and plugging the hole flips the verdict. *)
  let fixed =
    {
      p with
      Nic.Steer.rules =
        p.Nic.Steer.rules
        @ [ rule [ atom Length 129 65_535; atom Dst_port 7_001 65_535 ] (Queue 3) ];
    }
  in
  match Nic.Steer_verify.verify ~env fixed with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "plugged quadrants rejected:\n%s" (String.concat "\n" ds)

let test_reject_target_range () =
  let p = prog "oor" [ rule [] (Nic.Steer.Queue 9) ] in
  expect_reject "oor" p "queue 9 out of range [0,4)";
  let lanes =
    prog "lanes"
      [ rule [] (Nic.Steer.Hash_lane { key = [ Nic.Steer.Src_ip ]; lanes = 4; base = 2 }) ]
  in
  expect_reject "lanes" lanes "lane window [2,6) outside the queue range"

let test_reject_payload_prefix () =
  (* Payload byte 40 is outside the declared 32-byte prefix: reading it
     would make dispatch depend on unparsed bytes. *)
  let p =
    prog ~default:Nic.Steer.Rss "deep"
      [ rule [ atom (Nic.Steer.Payload 40) 0 10 ] (Queue 0) ]
  in
  expect_reject "deep" p "outside the guaranteed-parseable 32-byte prefix"

let test_reject_over_budget () =
  (* A 64-byte payload hash key costs 64*4 + 15 + 6*64 + 2 = 657 ns,
     over the 500 ns budget even with the prefix widened to admit it. *)
  let wide = { env with Nic.Steer_verify.payload_prefix = 64 } in
  let key = List.init 64 (fun i -> Nic.Steer.Payload i) in
  let p =
    prog "greedy" [ rule [] (Nic.Steer.Hash_lane { key; lanes = 4; base = 0 }) ]
  in
  expect_reject ~env:wide "greedy" p "exceeds the budget";
  expect_reject ~env:wide "greedy-cost" p "657 ns"

let test_reject_empty_interval () =
  let p =
    prog ~default:Nic.Steer.Rss "empty"
      [ rule [ atom Nic.Steer.Dst_port 10 5 ] (Queue 0) ]
  in
  expect_reject "empty" p "empty interval"

let test_reject_worker_without_fallback () =
  (* Pinning a worker with no on_dead composes unsafely with the
     stale-mirror dispatch model: the verifier must surface the model
     checker's counterexample trace. *)
  let p = prog "pin" [ rule [] (Nic.Steer.Worker 0) ] in
  expect_reject "pin" p "unsafe across scheduler-mirror updates";
  expect_reject "pin-trace" p "counterexample (stale-mirror model)";
  expect_reject "pin-fix" p "on_dead fallback";
  (* The same pin with a non-worker fallback is safe. *)
  let fb = prog ~on_dead:Nic.Steer.Rss "pin_fb" [ rule [] (Nic.Steer.Worker 0) ] in
  (match Nic.Steer_verify.verify ~env fb with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "pin_fb rejected:\n%s" (String.concat "\n" ds));
  (* ... but a worker on_dead just moves the problem. *)
  let ww =
    prog ~on_dead:(Nic.Steer.Worker 1) "pin_ww" [ rule [] (Nic.Steer.Worker 0) ]
  in
  expect_reject "pin_ww" ww "must not itself pin a worker"

(* --- compiled/declarative equivalence ------------------------------ *)

let frame_gen =
  QCheck.make
    ~print:(fun (a, b, c, d, e, f) ->
      Printf.sprintf "sip=%d dip=%d sp=%d dp=%d len=%d fill=%d" a b c d e f)
    QCheck.Gen.(
      tup6 (int_bound 0xffffff) (int_bound 0xffffff) (int_bound 0xffff)
        (int_bound 0xffff) (int_range 1 256) (int_bound 255))

let frame_of (sip, dip, sp, dp, len, fill) =
  mk_frame ~src_ip:sip ~dst_ip:dip ~src_port:sp ~dst_port:dp ~len
    ~fill:(Char.chr fill) ()

let compile_eval_equiv =
  let rss = Nic.Rss.create ~queues:4 () in
  QCheck.Test.make
    ~name:"compiled first-match = declarative match-all on verified programs"
    ~count:500 frame_gen (fun tup ->
      let f = frame_of tup in
      List.for_all
        (fun p ->
          match Nic.Steer_verify.verify ~env p with
          | Error _ -> QCheck.Test.fail_report "builtin no longer verifies"
          | Ok v ->
              let p = Nic.Steer_verify.program v in
              Nic.Steer.compile ~rss p f = Nic.Steer.eval ~rss p f)
        (* a rule-less program with a queue default compiles to a
           constant, as rss_all compiles to the RSS lookup itself *)
        (prog ~default:(Nic.Steer.Queue 2) "queue_all" [] :: Nic.Steer.builtins))

(* The bitwise Toeplitz hash as the RSS spec defines it, the library's
   implementation before it became table-driven: for every set input
   bit, XOR in the 32-bit key window starting at that bit's offset,
   reading zero bytes past the key's end. The reference side of the
   properties below. *)
let bitwise_toeplitz ~key data =
  let window bit =
    let byte = bit / 8 and shift = bit mod 8 in
    let b i =
      if byte + i < String.length key then Char.code key.[byte + i] else 0
    in
    let forty =
      Int64.logor
        (Int64.shift_left (Int64.of_int (b 0)) 32)
        (Int64.of_int ((b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4))
    in
    Int64.to_int
      (Int64.logand (Int64.shift_right_logical forty (8 - shift)) 0xffff_ffffL)
  in
  let acc = ref 0 in
  for i = 0 to Bytes.length data - 1 do
    let byte = Char.code (Bytes.get data i) in
    for bit = 0 to 7 do
      if byte land (0x80 lsr bit) <> 0 then
        acc := !acc lxor window ((i * 8) + bit)
    done
  done;
  !acc land 0xffff_ffff

let bytes_arb ~max =
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 max)))

let rss_hash_pure =
  let t = Nic.Rss.create ~queues:4 () in
  QCheck.Test.make ~name:"Rss.hash = toeplitz under the default key"
    ~count:300 (bytes_arb ~max:48)
    (fun b ->
      Nic.Rss.hash t b = bitwise_toeplitz ~key:Nic.Rss.default_key b
      && Nic.Rss.hash_prefix t b ~len:(Bytes.length b) = Nic.Rss.hash t b)

(* Keys of 40 to 52 bytes and inputs of up to 48, so some inputs run
   past the key's end, where the windows are zero. *)
let rss_tables_match_bitwise =
  QCheck.Test.make ~name:"toeplitz_hash = bitwise reference under random keys"
    ~count:300
    (QCheck.pair
       (QCheck.make
          ~print:(fun k -> String.escaped k)
          QCheck.Gen.(string_size (int_range 40 52)))
       (bytes_arb ~max:48))
    (fun (key, b) ->
      Nic.Rss.toeplitz_hash ~key b = bitwise_toeplitz ~key b
      && Nic.Rss.toeplitz_hash ~key:Nic.Rss.default_key b
         = bitwise_toeplitz ~key:Nic.Rss.default_key b)

(* The canonical 12-byte RSS tuple: src_ip, dst_ip, src_port, dst_port,
   big-endian. *)
let flow_tuple ~sip ~dip ~sp ~dp =
  let b = Bytes.create 12 in
  let be32 off v =
    Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (v land 0xff))
  and be16 off v =
    Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 1) (Char.chr (v land 0xff))
  in
  be32 0 sip; be32 4 dip; be16 8 sp; be16 10 dp;
  b

let flow_arb =
  QCheck.(
    quad (int_bound 0xffff_ffff) (int_bound 0xffff_ffff) (int_bound 0xffff)
      (int_bound 0xffff))

let rss_hash_flow_agree =
  (* hash_flow over the canonical 12-byte RSS tuple is exactly
     [Rss.hash] of those bytes: steering-by-key and RSS share one
     Toeplitz. *)
  let t = Nic.Rss.create ~queues:8 () in
  QCheck.Test.make ~name:"hash_flow = Rss.hash of the canonical tuple"
    ~count:300 flow_arb
    (fun (sip, dip, sp, dp) ->
      let src_ip = Net.Ip_addr.of_int sip and dst_ip = Net.Ip_addr.of_int dip in
      Nic.Rss.hash_flow t ~src_ip ~dst_ip ~src_port:sp ~dst_port:dp
      = Nic.Rss.hash t (flow_tuple ~sip ~dip ~sp ~dp))

let rss_hash_flow_bitwise =
  QCheck.Test.make ~name:"hash_flow = bitwise reference under random keys"
    ~count:300
    (QCheck.pair
       (QCheck.make
          ~print:(fun k -> String.escaped k)
          QCheck.Gen.(string_size (int_range 40 52)))
       flow_arb)
    (fun (key, (sip, dip, sp, dp)) ->
      let t = Nic.Rss.create ~key ~queues:8 () in
      let src_ip = Net.Ip_addr.of_int sip and dst_ip = Net.Ip_addr.of_int dip in
      Nic.Rss.hash_flow t ~src_ip ~dst_ip ~src_port:sp ~dst_port:dp
      = bitwise_toeplitz ~key (flow_tuple ~sip ~dip ~sp ~dp))

(* --- steering reads of short payloads are total -------------------- *)

(* Every verified program that reads the payload: the shipped ones,
   plus a guard on the first and last prefix bytes and a key hashed
   over the whole prefix. *)
let payload_programs =
  let prefix = env.Nic.Steer_verify.payload_prefix in
  let last = prefix - 1 in
  let reads_payload (p : Nic.Steer.t) =
    let in_key = function
      | Nic.Steer.Hash_lane { key; _ } ->
          List.exists (function Nic.Steer.Payload _ -> true | _ -> false) key
      | _ -> false
    in
    let in_target = function Some tg -> in_key tg | None -> false in
    List.exists
      (fun (r : Nic.Steer.rule) ->
        in_key r.target
        || List.exists
             (fun (a : Nic.Steer.atom) ->
               match a.field with Nic.Steer.Payload _ -> true | _ -> false)
             r.guard)
      p.rules
    || in_target p.default || in_target p.on_dead
  in
  let fixtures =
    [
      prog ~default:Nic.Steer.Rss "payload_guards"
        [
          rule
            [ atom (Nic.Steer.Payload 0) 0 127; atom (Nic.Steer.Payload last) 0 127 ]
            (Nic.Steer.Hash_lane
               { key = [ Nic.Steer.Payload 0; Nic.Steer.Payload last ]; lanes = 2; base = 0 });
          rule [ atom (Nic.Steer.Payload 0) 128 255 ] (Queue 3);
        ];
      Nic.Steer.key_affinity ~name:"whole_prefix" ~key_off:0 ~key_len:prefix
        ~lanes:4 ();
    ]
  in
  List.map
    (fun p ->
      match Nic.Steer_verify.verify ~env p with
      | Ok v -> Nic.Steer_verify.program v
      | Error ds ->
          failwith
            (Printf.sprintf "fixture %s rejected:\n%s" p.Nic.Steer.name
               (String.concat "\n" ds)))
    (List.filter reads_payload Nic.Steer.builtins @ fixtures)

let payload_frame ~src_port payload =
  let f = mk_frame ~src_port ~len:0 () in
  Net.Frame.make ~src:f.Net.Frame.src ~dst:f.Net.Frame.dst payload

(* A payload cut to 0 ... prefix bytes, or a longer one with some bytes
   flipped. *)
let short_payload_gen =
  let prefix = env.Nic.Steer_verify.payload_prefix in
  QCheck.Gen.(
    oneof
      [
        map Bytes.of_string (string_size (int_range 0 prefix));
        map2
          (fun base flips ->
            let b = Bytes.of_string base in
            List.iter
              (fun (i, x) ->
                let i = i mod Bytes.length b in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
              flips;
            b)
          (string_size (int_range prefix (2 * prefix)))
          (list_size (int_range 1 8) (pair nat (int_range 1 255)));
      ])

let short_payloads_total =
  let rss = Nic.Rss.create ~queues:4 () in
  let compiled = List.map (fun p -> (p, Nic.Steer.compile ~rss p)) payload_programs in
  QCheck.Test.make
    ~name:"compiled steering is total and = eval on short or flipped payloads"
    ~count:500
    (QCheck.make
       ~print:(fun (sp, b) ->
         Printf.sprintf "src_port=%d payload=%S" sp (Bytes.to_string b))
       QCheck.Gen.(pair (int_bound 0xffff) short_payload_gen))
    (fun (src_port, payload) ->
      let f = payload_frame ~src_port payload in
      List.for_all
        (fun (p, c) ->
          match c f with
          | lane -> lane = Nic.Steer.eval ~rss p f
          | exception e ->
              QCheck.Test.fail_reportf "%s raised %s" p.Nic.Steer.name
                (Printexc.to_string e))
        compiled)

(* --- the per-frame path allocates nothing -------------------------- *)

(* Frames of every payload length from 0 to 255 bytes (both sides of
   size_split's cutoff, and short and long of key_affinity's key), over
   varied flows. *)
let alloc_frames =
  Array.init 256 (fun i ->
      mk_frame ~src_ip:(0x0a000000 + (i * 7919)) ~src_port:(1024 + (i * 31))
        ~dst_port:(if i mod 5 = 0 then 7_000 else 7_001 + i)
        ~len:i ~fill:(Char.chr (i land 0xff)) ())

(* Minor words per frame of [f] over [alloc_frames], flushed with
   [Gc.minor] as in test_sim's engine budget. *)
let words_per_frame f =
  let n = Array.length alloc_frames and rounds = 40 in
  for i = 0 to n - 1 do ignore (Sys.opaque_identity (f alloc_frames.(i))) done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f alloc_frames.(i)))
    done
  done;
  Gc.minor ();
  (Gc.minor_words () -. before, n * rounds)

(* The measurement itself may box a float or two: 64 words over 10k
   frames rounds to 0 words per frame. *)
let check_no_alloc name f =
  let words, frames = words_per_frame f in
  checkb
    (Printf.sprintf "%s: %.0f words over %d frames" name words frames)
    true (words <= 64.)

let test_rss_allocates_nothing () =
  let rss_tbl = Nic.Rss.create ~queues:4 () in
  check_no_alloc "Rss.queue_of_frame" (Nic.Rss.queue_of_frame rss_tbl)

let test_rss_hashes_allocate_nothing () =
  let rss_tbl = Nic.Rss.create ~queues:4 () in
  check_no_alloc "Rss.hash_flow" (fun (f : Net.Frame.t) ->
      Nic.Rss.hash_flow rss_tbl ~src_ip:f.src.ip ~dst_ip:f.dst.ip
        ~src_port:f.src.port ~dst_port:f.dst.port);
  check_no_alloc "Rss.hash_prefix" (fun (f : Net.Frame.t) ->
      Nic.Rss.hash_prefix rss_tbl f.payload ~len:(Bytes.length f.payload))

let test_compiled_programs_allocate_nothing () =
  let rss = Nic.Rss.create ~queues:4 () in
  (* rss_all, key_affinity, size_split and priority_lanes *)
  checki "four shipped programs" 4 (List.length Nic.Steer.builtins);
  List.iter
    (fun p -> check_no_alloc p.Nic.Steer.name (Nic.Steer.compile ~rss p))
    Nic.Steer.builtins

(* --- eval totality oracle ------------------------------------------ *)

let test_eval_rejects_double_match () =
  let rss = Nic.Rss.create ~queues:1 () in
  let p =
    prog ~default:Nic.Steer.Rss "live_dup"
      [ rule [] (Nic.Steer.Queue 0); rule [] (Nic.Steer.Queue 1) ]
  in
  checkb "eval raises on double match" true
    (try
       ignore (Nic.Steer.eval ~rss p (mk_frame ()));
       false
     with Failure _ -> true);
  let lossy = prog "live_lossy" [ rule [ atom Nic.Steer.Dst_port 0 10 ] (Queue 0) ] in
  checkb "eval raises on fallthrough without default" true
    (try
       ignore (Nic.Steer.eval ~rss lossy (mk_frame ~dst_port:7000 ()));
       false
     with Failure _ -> true)

(* --- installed on a NIC: cost charged, lanes counted --------------- *)

let verified p =
  match Nic.Steer_verify.verify ~env p with
  | Ok v -> v
  | Error ds -> Alcotest.failf "fixture rejected:\n%s" (String.concat "\n" ds)

let rx_latency ?steering () =
  (* Time from wire to rx interrupt, with interrupt coalescing off —
     the steering program's verified cost must show up, exactly, and
     only when a program is installed. *)
  let e = Sim.Engine.create () in
  let at = ref (-1) in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue:_ -> at := Sim.Engine.now e)
      ()
  in
  (match steering with
  | None -> ()
  | Some v -> Nic.Steer_verify.install ~nic v);
  Nic.Dma_nic.rx_from_wire nic (mk_frame ());
  Sim.Engine.run e;
  checkb "interrupt fired" true (!at >= 0);
  !at

let test_install_charges_cost () =
  let v = verified Nic.Steer.rss_all in
  let base = rx_latency () in
  let steered = rx_latency ~steering:v () in
  checki "rx path slower by exactly the verified cost"
    (Nic.Steer_verify.cost v) (steered - base)

let test_install_counts_lanes () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  let m = Obs.Metrics.create () in
  Nic.Steer_verify.install ~metrics:m ~nic (verified Nic.Steer.rss_all);
  for i = 0 to 9 do
    Nic.Dma_nic.rx_from_wire nic (mk_frame ~src_port:(4000 + i) ())
  done;
  Sim.Engine.run e;
  checki "every decision counted" 10 (Obs.Metrics.counter_value m "steer_decisions");
  let lane_sum = ref 0 in
  for q = 0 to Nic.Dma_nic.nqueues nic - 1 do
    lane_sum :=
      !lane_sum
      + Obs.Metrics.counter_value m (Printf.sprintf "steer_lane_%d" q)
  done;
  checki "lane counters sum to decisions" 10 !lane_sum

let test_steering_off_costs_zero () =
  (* The whole PR rides on this: no program installed, no cost. *)
  let a = rx_latency () and b = rx_latency () in
  checki "baseline rx latency stable" a b

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "steer"
    [
      ( "verify",
        [
          Alcotest.test_case "builtins pass" `Quick test_builtins_verify;
          Alcotest.test_case "lossy rejected" `Quick test_reject_lossy;
          Alcotest.test_case "overlap rejected" `Quick test_reject_overlap;
          Alcotest.test_case "multi-field hole" `Quick
            test_reject_multifield_hole;
          Alcotest.test_case "target out of range" `Quick
            test_reject_target_range;
          Alcotest.test_case "payload outside prefix" `Quick
            test_reject_payload_prefix;
          Alcotest.test_case "over budget" `Quick test_reject_over_budget;
          Alcotest.test_case "empty interval" `Quick
            test_reject_empty_interval;
          Alcotest.test_case "worker needs fallback" `Quick
            test_reject_worker_without_fallback;
        ] );
      ( "semantics",
        Alcotest.test_case "eval is the totality oracle" `Quick
          test_eval_rejects_double_match
        :: qsuite
             [
               compile_eval_equiv; rss_hash_pure; rss_tables_match_bitwise;
               rss_hash_flow_agree; rss_hash_flow_bitwise; short_payloads_total;
             ] );
      ( "alloc",
        [
          Alcotest.test_case "Rss.queue_of_frame allocates nothing" `Quick
            test_rss_allocates_nothing;
          Alcotest.test_case "Rss.hash_flow and hash_prefix allocate nothing"
            `Quick test_rss_hashes_allocate_nothing;
          Alcotest.test_case "compiled programs allocate nothing" `Quick
            test_compiled_programs_allocate_nothing;
        ] );
      ( "nic",
        [
          Alcotest.test_case "install charges verified cost" `Quick
            test_install_charges_cost;
          Alcotest.test_case "install counts lanes" `Quick
            test_install_counts_lanes;
          Alcotest.test_case "off costs zero" `Quick
            test_steering_off_costs_zero;
        ] );
    ]
