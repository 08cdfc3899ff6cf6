(* Tests for the packet substrate: buffers, addresses, checksums,
   header codecs, full frames, and the wire model. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let raises_oob f =
  try
    f ();
    false
  with Net.Buf.Out_of_bounds _ -> true

(* ---------- Buf ---------- *)

let test_buf_roundtrip () =
  let w = Net.Buf.writer 32 in
  Net.Buf.write_u8 w 0xab;
  Net.Buf.write_u16 w 0xbeef;
  Net.Buf.write_u32 w 0xdead_beef;
  Net.Buf.write_u64 w 0x0123_4567_89ab_cdefL;
  Net.Buf.write_string w "hey";
  let b = Net.Buf.contents w in
  checki "length" 18 (Bytes.length b);
  let r = Net.Buf.reader b in
  checki "u8" 0xab (Net.Buf.read_u8 r);
  checki "u16" 0xbeef (Net.Buf.read_u16 r);
  checki "u32" 0xdead_beef (Net.Buf.read_u32 r);
  check Alcotest.int64 "u64" 0x0123_4567_89ab_cdefL (Net.Buf.read_u64 r);
  checks "string" "hey" (Bytes.to_string (Net.Buf.read_bytes r ~len:3));
  Net.Buf.expect_end r

let test_buf_bounds () =
  let w = Net.Buf.writer 2 in
  Net.Buf.write_u8 w 1;
  checkb "write over capacity" true (raises_oob (fun () ->
      Net.Buf.write_u32 w 5));
  let r = Net.Buf.reader (Bytes.make 1 'x') in
  checkb "read past end" true (raises_oob (fun () ->
      ignore (Net.Buf.read_u16 r)));
  checkb "trailing bytes" true (raises_oob (fun () ->
      Net.Buf.expect_end (Net.Buf.reader (Bytes.make 2 'x'))))

let test_buf_value_ranges () =
  let w = Net.Buf.writer 8 in
  checkb "u8 range" true
    (try Net.Buf.write_u8 w 256; false with Invalid_argument _ -> true);
  checkb "u16 range" true
    (try Net.Buf.write_u16 w (-1); false with Invalid_argument _ -> true);
  checkb "u32 range" true
    (try Net.Buf.write_u32 w 0x1_0000_0000; false
     with Invalid_argument _ -> true)

let test_buf_patch_and_sub () =
  let w = Net.Buf.writer 8 in
  Net.Buf.write_u16 w 0;
  Net.Buf.write_u16 w 42;
  Net.Buf.patch_u16 w ~pos:0 7;
  let b = Net.Buf.contents w in
  let r = Net.Buf.sub_reader b ~pos:0 ~len:2 in
  checki "patched" 7 (Net.Buf.read_u16 r);
  checki "sub limit" 0 (Net.Buf.remaining r);
  checkb "patch unwritten" true (raises_oob (fun () ->
      Net.Buf.patch_u16 w ~pos:6 1))

(* ---------- Addresses ---------- *)

let test_mac_roundtrip () =
  let m = Net.Mac_addr.of_string "02:aa:bb:cc:dd:ee" in
  checks "to_string" "02:aa:bb:cc:dd:ee" (Net.Mac_addr.to_string m);
  let w = Net.Buf.writer 6 in
  Net.Mac_addr.write w m;
  let m' = Net.Mac_addr.read (Net.Buf.reader (Net.Buf.contents w)) in
  checkb "wire roundtrip" true (Net.Mac_addr.equal m m')

let test_mac_classification () =
  checkb "broadcast" true (Net.Mac_addr.is_broadcast Net.Mac_addr.broadcast);
  checkb "multicast bit" true
    (Net.Mac_addr.is_multicast (Net.Mac_addr.of_string "01:00:5e:00:00:01"));
  checkb "unicast" false
    (Net.Mac_addr.is_multicast (Net.Mac_addr.of_string "02:00:00:00:00:01"));
  checkb "bad syntax" true
    (try ignore (Net.Mac_addr.of_string "zz:00"); false
     with Invalid_argument _ -> true)

let test_ip_roundtrip () =
  let ip = Net.Ip_addr.of_string "192.168.3.7" in
  checks "to_string" "192.168.3.7" (Net.Ip_addr.to_string ip);
  checki "to_int" 0xc0a80307 (Net.Ip_addr.to_int ip);
  checkb "bad" true
    (try ignore (Net.Ip_addr.of_string "1.2.3.256"); false
     with Invalid_argument _ -> true)

let test_ip_subnet () =
  let net = Net.Ip_addr.of_string "10.1.0.0" in
  checkb "inside" true
    (Net.Ip_addr.in_subnet (Net.Ip_addr.of_string "10.1.200.3")
       ~network:net ~prefix_len:16);
  checkb "outside" false
    (Net.Ip_addr.in_subnet (Net.Ip_addr.of_string "10.2.0.1")
       ~network:net ~prefix_len:16);
  checkb "prefix 0 matches all" true
    (Net.Ip_addr.in_subnet (Net.Ip_addr.of_string "8.8.8.8")
       ~network:net ~prefix_len:0)

(* ---------- Checksum ---------- *)

let test_checksum_rfc1071_example () =
  (* Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d. *)
  let b = Bytes.create 8 in
  List.iteri (fun i v -> Bytes.set_uint16_be b (2 * i) v)
    [ 0x0001; 0xf203; 0xf4f5; 0xf6f7 ];
  checki "rfc1071" 0x220d (Net.Checksum.compute b ~pos:0 ~len:8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402 -> complement 0xfbfd *)
  checki "odd" 0xfbfd (Net.Checksum.compute b ~pos:0 ~len:3)

let test_checksum_composable () =
  let b = Bytes.of_string "\x01\x02\x03\x04\x05\x06" in
  let whole = Net.Checksum.ones_complement_sum b ~pos:0 ~len:6 in
  let part1 = Net.Checksum.ones_complement_sum b ~pos:0 ~len:2 in
  let part2 = Net.Checksum.ones_complement_sum ~init:part1 b ~pos:2 ~len:4 in
  checki "composable" whole part2

let checksum_verifies_after_embedding =
  QCheck.Test.make
    ~name:"data + embedded checksum verifies to all-ones" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 64) (int_bound 255))
    (fun data ->
      (* Reserve two bytes at the front for the checksum field. *)
      let b = Bytes.make (2 + List.length data) '\000' in
      List.iteri (fun i v -> Bytes.set b (2 + i) (Char.chr v)) data;
      let c = Net.Checksum.compute b ~pos:0 ~len:(Bytes.length b) in
      Bytes.set_uint16_be b 0 c;
      (* A checksum of 0 means the complement was 0xffff: data already
         sums to all-ones; skip (IPv4 never emits it this way). *)
      c = 0 || Net.Checksum.verify b ~pos:0 ~len:(Bytes.length b))


(* The word-wide fast path must agree with the 2-byte reference on
   every buffer, offset, length, and seed. *)
let checksum_word_matches_bytewise =
  QCheck.Test.make ~name:"word-wide checksum matches bytewise reference"
    ~count:1000
    QCheck.(
      quad (string_of_size (Gen.int_range 0 4096)) small_nat small_nat
        small_nat)
    (fun (s, off_seed, len_seed, init) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let pos = if n = 0 then 0 else off_seed mod (n + 1) in
      let len = if n = pos then 0 else len_seed mod (n - pos + 1) in
      Net.Checksum.ones_complement_sum ~init b ~pos ~len
      = Net.Checksum.ones_complement_sum_bytewise ~init b ~pos ~len)

(* ---------- IPv4 / UDP / Frame ---------- *)

let sample_ipv4 =
  {
    Net.Ipv4.dscp = 0;
    identification = 0x1234;
    ttl = 64;
    protocol = Net.Ipv4.protocol_udp;
    src = Net.Ip_addr.of_string "10.0.0.1";
    dst = Net.Ip_addr.of_string "10.0.0.2";
    payload_len = 12;
  }

let test_ipv4_roundtrip () =
  let w = Net.Buf.writer 64 in
  Net.Ipv4.write w sample_ipv4;
  Net.Buf.write_bytes w (Bytes.make 12 'p');
  let r = Net.Buf.reader (Net.Buf.contents w) in
  match Net.Ipv4.read r with
  | Error e -> Alcotest.failf "parse: %a" Net.Ipv4.pp_error e
  | Ok h ->
      checki "ttl" 64 h.Net.Ipv4.ttl;
      checki "payload_len" 12 h.Net.Ipv4.payload_len;
      checkb "src" true (Net.Ip_addr.equal sample_ipv4.Net.Ipv4.src h.Net.Ipv4.src)

let test_ipv4_detects_corruption () =
  let w = Net.Buf.writer 64 in
  Net.Ipv4.write w sample_ipv4;
  let b = Net.Buf.contents w in
  Bytes.set b 8 '\x00' (* flip TTL byte: checksum must fail *);
  (match Net.Ipv4.read (Net.Buf.reader b) with
  | Error Net.Ipv4.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Net.Ipv4.pp_error e
  | Ok _ -> Alcotest.fail "corruption not detected");
  (* Truncation. *)
  match Net.Ipv4.read (Net.Buf.reader (Bytes.sub b 0 10)) with
  | Error Net.Ipv4.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Net.Ipv4.pp_error e
  | Ok _ -> Alcotest.fail "truncation not detected"

let test_udp_roundtrip_and_checksum () =
  let src_ip = Net.Ip_addr.of_string "10.0.0.1" in
  let dst_ip = Net.Ip_addr.of_string "10.0.0.2" in
  let payload = Bytes.of_string "hello-udp" in
  let w = Net.Buf.writer 64 in
  Net.Udp.write w
    { Net.Udp.src_port = 111; dst_port = 222;
      payload_len = Bytes.length payload }
    ~src_ip ~dst_ip ~payload;
  let seg = Net.Buf.contents w in
  (match Net.Udp.read (Net.Buf.reader seg) ~src_ip ~dst_ip with
  | Error e -> Alcotest.failf "parse: %a" Net.Udp.pp_error e
  | Ok (h, p) ->
      checki "src port" 111 h.Net.Udp.src_port;
      checks "payload" "hello-udp" (Bytes.to_string p));
  (* Corrupt one payload byte: checksum must fail. *)
  Bytes.set seg (Bytes.length seg - 1) '!';
  match Net.Udp.read (Net.Buf.reader seg) ~src_ip ~dst_ip with
  | Error Net.Udp.Bad_checksum -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Net.Udp.pp_error e
  | Ok _ -> Alcotest.fail "corruption not detected"

let ep ?(port = 1234) ?(last = 1) () =
  {
    Net.Frame.mac = Net.Mac_addr.of_int64 (Int64.of_int (0x020000000000 + last));
    ip = Net.Ip_addr.of_string (Printf.sprintf "10.0.0.%d" last);
    port;
  }

let test_frame_roundtrip () =
  let src = ep ~port:5555 ~last:1 () and dst = ep ~port:80 ~last:2 () in
  let f = Net.Frame.make ~src ~dst (Bytes.of_string "payload!") in
  let b = Net.Frame.encode f in
  checkb "min size padding" true (Bytes.length b >= Net.Ethernet.min_frame_size);
  match Net.Frame.parse b with
  | Error e -> Alcotest.failf "parse: %a" Net.Frame.pp_error e
  | Ok f' ->
      checks "payload survives" "payload!"
        (Bytes.to_string f'.Net.Frame.payload);
      checki "src port" 5555 (Net.Frame.src_endpoint f').Net.Frame.port;
      checki "dst port" 80 (Net.Frame.dst_endpoint f').Net.Frame.port

let frame_roundtrip_any_payload =
  QCheck.Test.make ~name:"frame encode/parse is identity on payload"
    ~count:200
    QCheck.(string_of_size (Gen.int_range 0 1600))
    (fun s ->
      let f =
        Net.Frame.make ~src:(ep ~last:1 ()) ~dst:(ep ~last:2 ())
          (Bytes.of_string s)
      in
      match Net.Frame.parse (Net.Frame.encode f) with
      | Ok f' -> Bytes.to_string f'.Net.Frame.payload = s
      | Error _ -> false)


let parse_slice_matches_parse =
  QCheck.Test.make ~name:"parse_slice at any offset agrees with parse"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 1600)) (int_bound 32))
    (fun (s, lead) ->
      let f =
        Net.Frame.make ~src:(ep ~last:1 ()) ~dst:(ep ~last:2 ())
          (Bytes.of_string s)
      in
      let wire = Net.Frame.encode f in
      (* Embed at a nonzero offset amid junk to exercise the slice
         arithmetic of the in-place parsers. *)
      let buf = Bytes.make (lead + Bytes.length wire + 7) '\xaa' in
      Bytes.blit wire 0 buf lead (Bytes.length wire);
      let sl = Net.Slice.make buf ~off:lead ~len:(Bytes.length wire) in
      match (Net.Frame.parse wire, Net.Frame.parse_slice sl) with
      | Ok a, Ok v -> Net.Frame.of_view v = a
      | Error _, Error _ -> true
      | _ -> false)

(* Totality: whatever bytes arrive — any prefix of an encoded frame,
   after up to three byte mutations — [parse_slice] answers [Ok] or
   [Error] and never raises; a cut shorter than the Ethernet header is
   [Error Runt]. *)
let parse_slice_total =
  QCheck.Test.make ~name:"parse_slice never raises on cut or mutated frames"
    ~count:300
    QCheck.(
      pair (string_of_size (Gen.int_range 0 128))
        (list_of_size (Gen.int_range 0 3) (pair small_nat (int_bound 255))))
    (fun (s, muts) ->
      let wire =
        Net.Frame.encode
          (Net.Frame.make ~src:(ep ~last:1 ()) ~dst:(ep ~last:2 ())
             (Bytes.of_string s))
      in
      let n = Bytes.length wire in
      List.iter (fun (i, v) -> Bytes.set_uint8 wire (i mod n) v) muts;
      List.for_all
        (fun len ->
          match Net.Frame.parse_slice (Net.Slice.make wire ~off:0 ~len) with
          | Error Net.Frame.Runt -> len < Net.Ethernet.header_size
          | Ok _ | Error _ -> len >= Net.Ethernet.header_size
          | exception e ->
              QCheck.Test.fail_reportf "cut %d raised %s" len
                (Printexc.to_string e))
        (List.init (n + 1) Fun.id))

let test_frame_rejects_non_ipv4 () =
  let f = Net.Frame.make ~src:(ep ()) ~dst:(ep ~last:2 ()) (Bytes.create 4) in
  let b = Net.Frame.encode f in
  Bytes.set_uint16_be b 12 0x0806 (* ARP ethertype *);
  match Net.Frame.parse b with
  | Error (Net.Frame.Not_ipv4 0x0806) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Net.Frame.pp_error e
  | Ok _ -> Alcotest.fail "accepted ARP"

(* ---------- Slice / Pool ---------- *)

let test_slice_views () =
  let b = Bytes.of_string "hello world" in
  let s = Net.Slice.make b ~off:6 ~len:5 in
  checki "length" 5 (Net.Slice.length s);
  checks "to_string" "world" (Net.Slice.to_string s);
  check Alcotest.char "get" 'w' (Net.Slice.get s 0);
  checks "sub" "orl" (Net.Slice.to_string (Net.Slice.sub s ~off:1 ~len:3));
  Bytes.set b 6 'W';
  checks "aliases its base" "World" (Net.Slice.to_string s);
  checkb "content equal" true
    (Net.Slice.equal s (Net.Slice.of_string "World"));
  checkb "prefix" true
    (Net.Slice.is_prefix_of (Net.Slice.make b ~off:0 ~len:5) b);
  checkb "not prefix" false
    (Net.Slice.is_prefix_of s b);
  checkb "bounds checked" true
    (try ignore (Net.Slice.make b ~off:8 ~len:9); false
     with Invalid_argument _ -> true)

let test_pool_accounting () =
  let p = Net.Pool.create ~prealloc:2 ~buffer_bytes:64 () in
  checki "prealloc idle" 2 (Net.Pool.idle p);
  let a = Net.Pool.acquire p ~len:64 in
  let b = Net.Pool.acquire p ~len:64 in
  let c = Net.Pool.acquire p ~len:64 in
  checki "grew once drained" 3 (Net.Pool.created p);
  checki "outstanding" 3 (Net.Pool.outstanding p);
  Net.Pool.release p a;
  Net.Pool.release p b;
  Net.Pool.release p c;
  checki "balanced at drain" 0 (Net.Pool.outstanding p);
  checki "idle after" 3 (Net.Pool.idle p);
  checki "high water" 3 (Net.Pool.high_water p);
  let d = Net.Pool.acquire p ~len:64 in
  Net.Pool.release p d;
  checki "steady state reuses buffers" 3 (Net.Pool.created p);
  checkb "wrong size rejected" true
    (try Net.Pool.release p (Bytes.create 8); false
     with Invalid_argument _ -> true);
  checkb "over-release rejected" true
    (try Net.Pool.release p (Bytes.create 64); false
     with Invalid_argument _ -> true)

(* A request is served from the smallest class that holds it: class k
   is [buffer_bytes * 2^k] bytes. Each class reuses its own buffers,
   only the base class is preallocated, and a buffer of no class size
   (or of a class never acquired from) is refused on release. *)
let test_pool_size_classes () =
  let p = Net.Pool.create ~prealloc:1 ~buffer_bytes:64 () in
  let sizes = List.map (fun len -> Bytes.length (Net.Pool.acquire p ~len))
      [ 0; 64; 65; 128; 129; 1000 ] in
  check Alcotest.(list int) "class sizes" [ 64; 64; 128; 128; 256; 1024 ] sizes;
  checki "only the first base buffer was preallocated" 6 (Net.Pool.created p);
  checki "outstanding across classes" 6 (Net.Pool.outstanding p);
  let big = Net.Pool.acquire p ~len:3000 in
  checki "class 6 (4096B)" 4096 (Bytes.length big);
  Net.Pool.release p big;
  checkb "the same buffer comes back from its class" true
    (Net.Pool.acquire p ~len:2049 == big);
  Net.Pool.release p big;
  checkb "a buffer of no class size rejected" true
    (try Net.Pool.release p (Bytes.create 96); false
     with Invalid_argument _ -> true);
  checkb "over-release of a larger class rejected" true
    (try Net.Pool.release p (Bytes.create 4096); false
     with Invalid_argument _ -> true);
  checkb "a class beyond any acquired rejected" true
    (try Net.Pool.release p (Bytes.create 8192); false
     with Invalid_argument _ -> true);
  checkb "negative length rejected" true
    (try ignore (Net.Pool.acquire p ~len:(-1)); false
     with Invalid_argument _ -> true)

(* The zero-allocation claim of the hot path: a pooled
   encode_into/parse_slice round trip must cost a small fixed number of
   allocated bytes (cursors, header records, the view) regardless of
   payload size, and every pool acquire must be matched at drain. *)
let alloc_budget_bytes = 512.

let test_pooled_roundtrip_allocation_budget () =
  let pool = Net.Pool.create ~prealloc:4 ~buffer_bytes:2048 () in
  let sink = ref 0 in
  let round frame =
    let buf = Net.Pool.acquire pool ~len:(Net.Frame.wire_size frame) in
    let s = Net.Frame.encode_into frame buf in
    (match Net.Frame.parse_slice s with
    | Ok v -> sink := !sink + Net.Slice.length v.Net.Frame.payload
    | Error _ -> assert false);
    Net.Pool.release pool buf
  in
  List.iter
    (fun payload_bytes ->
      let frame =
        Net.Frame.make ~src:(ep ~last:1 ()) ~dst:(ep ~last:2 ())
          (Bytes.make payload_bytes 'p')
      in
      for _ = 1 to 100 do round frame done (* warm-up *);
      let n = 5_000 in
      (* [Gc.allocated_bytes] only reflects the domain's allocation
         pointer at minor-collection boundaries; force a minor GC at
         both ends so the delta is exact rather than quantized to
         minor-heap segments (which made this test flaky). *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      for _ = 1 to n do round frame done;
      Gc.minor ();
      let after = Gc.allocated_bytes () in
      let per_round = (after -. before) /. float_of_int n in
      checkb
        (Printf.sprintf "%dB payload: %.1f alloc bytes/round-trip <= %.0f"
           payload_bytes per_round alloc_budget_bytes)
        true
        (per_round <= alloc_budget_bytes))
    [ 16; 64; 1472 ];
  checki "pool balanced at drain" 0 (Net.Pool.outstanding pool);
  checki "pool never grew past prealloc" 4 (Net.Pool.created pool)

(* ---------- Wire ---------- *)

let test_wire_serialization_delay () =
  (* 1500B + 24B overhead at 100 Gb/s = 1524*8/100 = 121.92 -> 122ns *)
  checki "delay" 122 (Net.Wire.serialization_delay ~gbps:100. ~bytes:1500)

let test_wire_delivery_and_queueing () =
  let e = Sim.Engine.create () in
  let arrivals = ref [] in
  let w =
    Net.Wire.create e ~gbps:100. ~propagation:500
      ~deliver:(fun f ->
        arrivals := (Sim.Engine.now e, Bytes.length f.Net.Frame.payload)
                    :: !arrivals)
      ()
  in
  let frame n = Net.Frame.make ~src:(ep ()) ~dst:(ep ~last:2 ()) (Bytes.make n 'x') in
  Net.Wire.transmit w (frame 100);
  Net.Wire.transmit w (frame 100);
  Sim.Engine.run e;
  checki "both arrived" 2 (List.length !arrivals);
  (match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
      checkb "first after serialization+prop" true (t1 > 500);
      checkb "second queued behind first" true (t2 > t1)
  | _ -> Alcotest.fail "arrivals");
  checki "frames counted" 2 (Net.Wire.frames_sent w)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "net"
    [
      ( "buf",
        [
          Alcotest.test_case "roundtrip" `Quick test_buf_roundtrip;
          Alcotest.test_case "bounds" `Quick test_buf_bounds;
          Alcotest.test_case "value ranges" `Quick test_buf_value_ranges;
          Alcotest.test_case "patch and sub" `Quick test_buf_patch_and_sub;
        ] );
      ( "addresses",
        [
          Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "mac classification" `Quick
            test_mac_classification;
          Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "ip subnet" `Quick test_ip_subnet;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick
            test_checksum_rfc1071_example;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "composable" `Quick test_checksum_composable;
        ]
        @ qsuite
            [ checksum_verifies_after_embedding;
              checksum_word_matches_bytewise ] );
      ( "headers",
        [
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv4 detects corruption" `Quick
            test_ipv4_detects_corruption;
          Alcotest.test_case "udp roundtrip + checksum" `Quick
            test_udp_roundtrip_and_checksum;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "rejects non-ipv4" `Quick
            test_frame_rejects_non_ipv4;
        ]
        @ qsuite
            [ frame_roundtrip_any_payload; parse_slice_matches_parse;
              parse_slice_total ]
      );
      ( "slice_pool",
        [
          Alcotest.test_case "slice views" `Quick test_slice_views;
          Alcotest.test_case "pool accounting" `Quick test_pool_accounting;
          Alcotest.test_case "allocation budget" `Quick
            test_pooled_roundtrip_allocation_budget;
          Alcotest.test_case "pool size classes" `Quick test_pool_size_classes;
        ] );
      ( "wire",
        [
          Alcotest.test_case "serialization delay" `Quick
            test_wire_serialization_delay;
          Alcotest.test_case "delivery and queueing" `Quick
            test_wire_delivery_and_queueing;
        ] );
    ]
