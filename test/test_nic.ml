(* Tests for the traditional-NIC substrate: rings, IOMMU, RSS, MSI-X
   moderation, and the DMA NIC receive path. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Ring ---------- *)

(* Each descriptor's length rides with its buffer. *)
let test_ring_fifo () =
  let r = Nic.Ring.create ~size:4 in
  checkb "produce" true (Nic.Ring.produce r 1 ~len:10);
  checkb "produce" true (Nic.Ring.produce r 2 ~len:20);
  checki "head length" 10 (Nic.Ring.head_len r);
  checki "consume" 1 (Nic.Ring.consume r);
  checki "head length" 20 (Nic.Ring.head_len r);
  checki "consume" 2 (Nic.Ring.consume r);
  checkb "empty" true (Nic.Ring.is_empty r);
  checkb "consume on empty raises" true
    (try
       ignore (Nic.Ring.consume r);
       false
     with Invalid_argument _ -> true)

let test_ring_full_drops () =
  let r = Nic.Ring.create ~size:2 in
  ignore (Nic.Ring.produce r 1 ~len:1);
  ignore (Nic.Ring.produce r 2 ~len:2);
  checkb "full rejects" false (Nic.Ring.produce r 3 ~len:3);
  checki "drop counted" 1 (Nic.Ring.drops r);
  ignore (Nic.Ring.consume r);
  checkb "space again" true (Nic.Ring.produce r 3 ~len:3)

let test_ring_size_validation () =
  checkb "non power of two" true
    (try
       ignore (Nic.Ring.create ~size:3);
       false
     with Invalid_argument _ -> true)

let test_ring_notify () =
  let r = Nic.Ring.create ~size:4 in
  let fired = ref 0 in
  Nic.Ring.on_produce r (fun () -> incr fired);
  ignore (Nic.Ring.produce r 1 ~len:1);
  ignore (Nic.Ring.produce r 2 ~len:2);
  checki "notified per produce" 2 !fired

let ring_fifo_property =
  QCheck.Test.make ~name:"ring is FIFO under interleaved produce/consume"
    ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some v = produce v (its length 2v + 1); None = consume. *)
      let r = Nic.Ring.create ~size:8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let full = Queue.length model = 8 in
              let accepted = Nic.Ring.produce r v ~len:((2 * v) + 1) in
              if accepted then Queue.add v model;
              accepted = not full
          | None -> (
              match Queue.take_opt model with
              | None -> Nic.Ring.is_empty r
              | Some b ->
                  let len = Nic.Ring.head_len r in
                  let a = Nic.Ring.consume r in
                  a = b && len = (2 * b) + 1))
        ops)

(* ---------- IOMMU ---------- *)

let test_iommu_hit_miss_fault () =
  let mmu = Nic.Iommu.create ~iotlb_entries:2 ~hit_cost:10 ~walk_cost:100 () in
  Nic.Iommu.map mmu ~iova:0x1000 ~len:4096;
  checki "first access walks" 110 (Nic.Iommu.translate mmu ~iova:0x1000);
  checki "second hits" 10 (Nic.Iommu.translate mmu ~iova:0x1fff);
  checki "hits" 1 (Nic.Iommu.hits mmu);
  checki "misses" 1 (Nic.Iommu.misses mmu);
  checkb "fault on unmapped" true
    (Nic.Iommu.translate_opt mmu ~iova:0x9999_0000 = None);
  checki "fault counted" 1 (Nic.Iommu.faults mmu);
  checkb "translate raises on fault" true
    (try
       ignore (Nic.Iommu.translate mmu ~iova:0x9999_0000);
       false
     with Invalid_argument _ -> true)

let test_iommu_lru_eviction () =
  let mmu = Nic.Iommu.create ~iotlb_entries:2 ~hit_cost:10 ~walk_cost:100 () in
  List.iter (fun i -> Nic.Iommu.map mmu ~iova:(i * 4096) ~len:4096) [ 1; 2; 3 ];
  ignore (Nic.Iommu.translate mmu ~iova:4096);
  ignore (Nic.Iommu.translate mmu ~iova:8192);
  ignore (Nic.Iommu.translate mmu ~iova:12288) (* evicts page 1 (LRU) *);
  checki "page 1 misses again" 110 (Nic.Iommu.translate mmu ~iova:4096)

let test_iommu_unmap () =
  let mmu = Nic.Iommu.create () in
  Nic.Iommu.map mmu ~iova:0 ~len:8192;
  ignore (Nic.Iommu.translate mmu ~iova:0);
  Nic.Iommu.unmap mmu ~iova:0 ~len:4096;
  checkb "unmapped page faults" true
    (Nic.Iommu.translate_opt mmu ~iova:0 = None);
  checkb "other page survives" true
    (Nic.Iommu.translate_opt mmu ~iova:4096 <> None)

(* The IOTLB as a stamp scan: each cached page carries the stamp of its
   last use, and a miss into a full IOTLB evicts the page with the
   smallest stamp. [Nic.Iommu] keeps a recency list instead, and must
   price every access alike and count the same hits, misses and
   faults. *)
type iotlb_model = {
  entries : int;
  mapped : (int, unit) Hashtbl.t;
  stamps : (int, int) Hashtbl.t;  (* cached page -> last-use stamp *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
}

let model_hit_cost = 10
let model_walk_cost = 100

(* The cost of an access, or -1 on a fault. *)
let model_access m ~page =
  if not (Hashtbl.mem m.mapped page) then begin
    m.faults <- m.faults + 1;
    -1
  end
  else begin
    m.stamp <- m.stamp + 1;
    if Hashtbl.mem m.stamps page then begin
      m.hits <- m.hits + 1;
      Hashtbl.replace m.stamps page m.stamp;
      model_hit_cost
    end
    else begin
      m.misses <- m.misses + 1;
      if Hashtbl.length m.stamps >= m.entries then begin
        let victim, _ =
          Hashtbl.fold
            (fun p s (vp, vs) -> if s < vs then (p, s) else (vp, vs))
            m.stamps (-1, max_int)
        in
        Hashtbl.remove m.stamps victim
      end;
      Hashtbl.replace m.stamps page m.stamp;
      model_walk_cost + model_hit_cost
    end
  end

type iommu_op =
  | Map of int * int  (* first page, pages *)
  | Unmap of int * int
  | Translate of int  (* iova *)
  | Translate_opt of int

let show_iommu_op = function
  | Map (p, n) -> Printf.sprintf "map %d+%d" p n
  | Unmap (p, n) -> Printf.sprintf "unmap %d+%d" p n
  | Translate iova -> Printf.sprintf "translate 0x%x" iova
  | Translate_opt iova -> Printf.sprintf "translate_opt 0x%x" iova

(* IOTLBs of 1 to 4 entries over pages 0 to 7: small enough that
   evictions, refills of unmapped pages and faults all happen often. *)
let iommu_case_arb =
  let open QCheck.Gen in
  let iova =
    map2 (fun p off -> (p * 4096) + off) (int_bound 7) (int_bound 4095)
  in
  let range = map2 (fun p n -> (p, n)) (int_bound 6) (int_range 1 2) in
  let op =
    frequency
      [
        (2, map (fun (p, n) -> Map (p, n)) range);
        (1, map (fun (p, n) -> Unmap (p, n)) range);
        (4, map (fun a -> Translate a) iova);
        (2, map (fun a -> Translate_opt a) iova);
      ]
  in
  QCheck.make
    ~print:(fun (entries, ops) ->
      Printf.sprintf "%d entries: %s" entries
        (String.concat "; " (List.map show_iommu_op ops)))
    (pair (int_range 1 4) (list_size (int_range 0 80) op))

let iommu_matches_stamp_model =
  QCheck.Test.make ~name:"IOTLB = stamp-scan LRU reference" ~count:500
    iommu_case_arb
    (fun (entries, ops) ->
      let mmu =
        Nic.Iommu.create ~iotlb_entries:entries ~hit_cost:model_hit_cost
          ~walk_cost:model_walk_cost ()
      in
      let m =
        {
          entries;
          mapped = Hashtbl.create 8;
          stamps = Hashtbl.create 8;
          stamp = 0;
          hits = 0;
          misses = 0;
          faults = 0;
        }
      in
      let pages p n f = for q = p to p + n - 1 do f q done in
      let same_cost cost iova =
        let want = model_access m ~page:(iova / 4096) in
        if cost <> want then
          QCheck.Test.fail_reportf "access 0x%x cost %d, model %d" iova cost
            want
      in
      List.iter
        (fun op ->
          match op with
          | Map (p, n) ->
              Nic.Iommu.map mmu ~iova:(p * 4096) ~len:(n * 4096);
              pages p n (fun q -> Hashtbl.replace m.mapped q ())
          | Unmap (p, n) ->
              Nic.Iommu.unmap mmu ~iova:(p * 4096) ~len:(n * 4096);
              pages p n (fun q ->
                  Hashtbl.remove m.mapped q;
                  Hashtbl.remove m.stamps q)
          | Translate iova ->
              let cost =
                try Nic.Iommu.translate mmu ~iova with Invalid_argument _ -> -1
              in
              same_cost cost iova
          | Translate_opt iova ->
              let cost =
                Option.value (Nic.Iommu.translate_opt mmu ~iova) ~default:(-1)
              in
              same_cost cost iova)
        ops;
      Nic.Iommu.hits mmu = m.hits
      && Nic.Iommu.misses mmu = m.misses
      && Nic.Iommu.faults mmu = m.faults)

(* Minor words over 10k translations of the pages [0, pages), cycled
   after one warming round. *)
let translate_words ~entries ~pages =
  let mmu = Nic.Iommu.create ~iotlb_entries:entries () in
  Nic.Iommu.map mmu ~iova:0 ~len:(pages * 4096);
  let round () =
    for i = 0 to 9_999 do
      ignore
        (Sys.opaque_identity
           (Nic.Iommu.translate mmu ~iova:(i mod pages * 4096)))
    done
  in
  round ();
  let misses = Nic.Iommu.misses mmu in
  Gc.minor ();
  let before = Gc.minor_words () in
  round ();
  Gc.minor ();
  (Gc.minor_words () -. before, Nic.Iommu.misses mmu - misses)

(* The measurement itself may box a float or two. *)
let test_iommu_hit_allocates_nothing () =
  let words, misses = translate_words ~entries:4 ~pages:4 in
  checki "every access hits" 0 misses;
  checkb (Printf.sprintf "%.0f words over 10k hits" words) true (words <= 64.)

let test_iommu_evicting_miss_allocates_nothing () =
  let words, misses = translate_words ~entries:4 ~pages:8 in
  checki "every access misses and evicts" 10_000 misses;
  checkb
    (Printf.sprintf "%.0f words over 10k evicting misses" words)
    true (words <= 64.)

(* ---------- RSS ---------- *)

let flow i =
  ( Net.Ip_addr.of_int (0x0a000001 + i),
    Net.Ip_addr.of_int 0x0a000002,
    1000 + i,
    53 )

let test_rss_deterministic () =
  let rss = Nic.Rss.create ~queues:4 () in
  let src_ip, dst_ip, src_port, dst_port = flow 1 in
  let q1 = Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port in
  let q2 = Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port in
  checki "same flow same queue" q1 q2;
  checkb "in range" true (q1 >= 0 && q1 < 4)

let test_rss_spreads_flows () =
  let rss = Nic.Rss.create ~queues:4 () in
  let seen = Hashtbl.create 8 in
  for i = 0 to 255 do
    let src_ip, dst_ip, src_port, dst_port = flow i in
    Hashtbl.replace seen
      (Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port)
      ()
  done;
  checki "all queues used" 4 (Hashtbl.length seen)

let test_rss_key_dependence () =
  let a = Nic.Rss.create ~queues:64 () in
  let b = Nic.Rss.create ~key:(String.make 40 '\x55') ~queues:64 () in
  let src_ip, dst_ip, src_port, dst_port = flow 3 in
  let ha = Nic.Rss.hash_flow a ~src_ip ~dst_ip ~src_port ~dst_port in
  let hb = Nic.Rss.hash_flow b ~src_ip ~dst_ip ~src_port ~dst_port in
  checkb "different keys differ" true (ha <> hb)

let test_toeplitz_zero_input () =
  checki "zero input hashes to 0" 0
    (Nic.Rss.toeplitz_hash ~key:Nic.Rss.default_key (Bytes.make 12 '\000'))

(* The IPv4-with-ports verification vectors of Microsoft's RSS
   specification ("Verifying the RSS Hash Calculation"), under its
   default key: destination, source, hash. The hash input is src_ip,
   dst_ip, src_port, dst_port. *)
let ms_rss_vectors =
  [
    ("161.142.100.80", 1766, "66.9.149.187", 2794, 0x51ccc178);
    ("65.69.140.83", 4739, "199.92.111.2", 14230, 0xc626b0ea);
    ("12.22.207.184", 38024, "24.19.198.95", 12898, 0x5c2b394a);
    ("209.142.163.6", 2217, "38.27.205.30", 48228, 0xafc7327f);
    ("202.188.127.2", 1303, "153.39.163.191", 44251, 0x10e828a2);
  ]

let test_rss_spec_vectors () =
  let rss = Nic.Rss.create ~queues:4 () in
  List.iter
    (fun (dst, dst_port, src, src_port, expected) ->
      checki
        (Printf.sprintf "%s:%d -> %s:%d" src src_port dst dst_port)
        expected
        (Nic.Rss.hash_flow rss ~src_ip:(Net.Ip_addr.of_string src)
           ~dst_ip:(Net.Ip_addr.of_string dst) ~src_port ~dst_port))
    ms_rss_vectors

(* ---------- MSI-X ---------- *)

let test_msix_immediate_then_moderated () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let m =
    Nic.Msix.create e ~min_interval:(Sim.Units.us 10)
      ~fire:(fun () -> fired := Sim.Engine.now e :: !fired)
      ()
  in
  Nic.Msix.raise_event m (* t=0: immediate *);
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 2) (fun () ->
         Nic.Msix.raise_event m (* absorbed *)));
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 3) (fun () ->
         Nic.Msix.raise_event m (* absorbed *)));
  Sim.Engine.run e;
  check
    (Alcotest.list Alcotest.int)
    "one immediate + one trailing"
    [ 0; Sim.Units.us 10 ]
    (List.rev !fired);
  checki "suppressed" 2 (Nic.Msix.suppressed m)

let test_msix_mask_latches () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let m =
    Nic.Msix.create e ~min_interval:0 ~fire:(fun () -> incr fired) ()
  in
  Nic.Msix.mask m;
  Nic.Msix.raise_event m;
  Nic.Msix.raise_event m;
  Sim.Engine.run e;
  checki "masked: nothing" 0 !fired;
  Nic.Msix.unmask m;
  Sim.Engine.run e;
  checki "pending delivered once" 1 !fired

(* ---------- DMA NIC ---------- *)

let sample_frame ?(dst_port = 53) ?(payload_bytes = 64) () =
  let src =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0a";
      ip = Net.Ip_addr.of_string "10.0.0.10";
      port = 5555;
    }
  in
  let dst =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:01";
      ip = Net.Ip_addr.of_string "10.0.0.1";
      port = dst_port;
    }
  in
  Net.Frame.make ~src ~dst (Bytes.make payload_bytes 'x')

(* The frame one [consume] delivers, copied out of its buffer inside the
   callback: [None] exactly when [consume] answers that the ring is
   empty. *)
let consume_frame nic ~queue =
  let got = ref None in
  let delivered =
    Nic.Dma_nic.consume nic ~queue (fun b ->
        got :=
          Some
            (Net.Frame.make
               ~src:(Net.Frame.src_endpoint b ~off:0)
               ~dst:(Net.Frame.dst_endpoint b ~off:0)
               (Bytes.sub b Net.Frame.payload_offset
                  (Net.Frame.payload_len b ~off:0))))
  in
  checkb "consume answers whether it delivered" delivered
    (Option.is_some !got);
  !got

let test_dma_nic_rx_to_ring_and_interrupt () =
  let e = Sim.Engine.create () in
  let irqs = ref [] in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue -> irqs := queue :: !irqs)
      ()
  in
  Nic.Dma_nic.rx_from_wire nic (sample_frame ());
  Sim.Engine.run e;
  checki "one interrupt" 1 (List.length !irqs);
  let q = List.hd !irqs in
  (match consume_frame nic ~queue:q with
  | Some f -> checki "payload survives" 64 (Bytes.length f.Net.Frame.payload)
  | None -> Alcotest.fail "ring empty");
  checki "delivered" 1 (Nic.Dma_nic.rx_delivered nic);
  checkb "dma delay nonzero" true (Sim.Engine.now e > 0)

let test_dma_nic_steering_override () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  Nic.Dma_nic.set_steering nic (fun f -> f.Net.Frame.dst.Net.Frame.port);
  Nic.Dma_nic.rx_from_wire nic (sample_frame ~dst_port:2 ());
  Sim.Engine.run e;
  checki "steered to queue 2" 1
    (Nic.Ring.occupancy (Nic.Dma_nic.rx_ring nic ~queue:2))

let test_dma_nic_transmit_delay () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  let sent_at = ref (-1) in
  Nic.Dma_nic.transmit nic (sample_frame ()) ~via:(fun _ ->
      sent_at := Sim.Engine.now e);
  Sim.Engine.run e;
  checkb "tx has dma latency" true
    (!sent_at
    >= Coherence.Interconnect.pcie_modern.Coherence.Interconnect.dma_read)

(* Overflow a tiny RX ring: the excess frames are counted tail drops
   and their pooled buffers are released on the spot — after draining,
   the pool balances (acquired = released, nothing outstanding). *)
let test_dma_nic_ring_overflow_no_leak () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:
        {
          Nic.Dma_nic.default_config with
          Nic.Dma_nic.nqueues = 1;
          ring_size = 4;
          coalesce_interval = 0;
        }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for _ = 1 to 10 do
    Nic.Dma_nic.rx_from_wire nic (sample_frame ())
  done;
  Sim.Engine.run e;
  let pool = Nic.Dma_nic.pool nic in
  checki "tail drops counted" 6 (Nic.Dma_nic.rx_dropped nic);
  checki "only ring occupants outstanding" 4 (Net.Pool.outstanding pool);
  let rec drain n =
    match consume_frame nic ~queue:0 with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  checki "ring held its capacity" 4 (drain 0);
  checki "no leaked buffers" 0 (Net.Pool.outstanding pool);
  checki "acquired = released" (Net.Pool.acquired pool)
    (Net.Pool.released pool)

(* With the NIC fault stage corrupting every DMA'd frame, the
   driver-side check rejects each descriptor: consume skips them all
   (answering "empty", so a poller never stalls on a bad head), counts
   them, and releases their buffers. *)
let test_dma_nic_corrupt_descriptors_skipped () =
  let e = Sim.Engine.create () in
  let plan =
    Fault.Plan.make ~seed:1 ~nic:(Fault.Plan.link ~corrupt:1.0 ()) ()
  in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:
        {
          Nic.Dma_nic.default_config with
          Nic.Dma_nic.nqueues = 1;
          coalesce_interval = 0;
        }
      ~fault:plan
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for _ = 1 to 5 do
    Nic.Dma_nic.rx_from_wire nic (sample_frame ())
  done;
  Sim.Engine.run e;
  (match consume_frame nic ~queue:0 with
  | Some _ -> Alcotest.fail "a corrupted descriptor parsed successfully"
  | None -> ());
  checki "all descriptors rejected" 5 (Nic.Dma_nic.rx_corrupt_dropped nic);
  checki "no leaked buffers" 0 (Net.Pool.outstanding (Nic.Dma_nic.pool nic))

(* Half the descriptors corrupt: each [consume] skips the corrupt heads
   and delivers the next valid descriptor, in ring order. The ring
   order is read off a twin NIC with the same seed and inputs, drained
   straight from its ring through [Net.Frame.check]. Each frame carries
   its index in its payload. *)
let test_dma_nic_mixed_corrupt_in_ring_order () =
  let n = 24 in
  let make () =
    let e = Sim.Engine.create () in
    let nic =
      Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
        ~config:
          {
            Nic.Dma_nic.default_config with
            Nic.Dma_nic.nqueues = 1;
            coalesce_interval = 0;
          }
        ~fault:
          (Fault.Plan.make ~seed:5 ~nic:(Fault.Plan.link ~corrupt:0.5 ()) ())
        ~on_rx_interrupt:(fun ~queue:_ -> ())
        ()
    in
    for i = 0 to n - 1 do
      let f = sample_frame () in
      Bytes.fill f.Net.Frame.payload 0 (Bytes.length f.Net.Frame.payload)
        (Char.chr i);
      Nic.Dma_nic.rx_from_wire nic f
    done;
    Sim.Engine.run e;
    nic
  in
  (* The twin's ring, oldest first: each descriptor's frame index when
     it checks, [None] when it is corrupt. *)
  let ring_order =
    let twin = make () in
    let ring = Nic.Dma_nic.rx_ring twin ~queue:0 in
    let rec go acc =
      if Nic.Ring.is_empty ring then List.rev acc
      else begin
        let len = Nic.Ring.head_len ring in
        let b = Nic.Ring.consume ring in
        let entry =
          match Net.Frame.check b ~off:0 ~len with
          | Ok () -> Some (Char.code (Bytes.get b Net.Frame.payload_offset))
          | Error _ -> None
        in
        Net.Pool.release (Nic.Dma_nic.pool twin) b;
        go (entry :: acc)
      end
    in
    go []
  in
  let nic = make () in
  checki "every frame reached the ring" n (List.length ring_order);
  let valid = List.filter_map Fun.id ring_order in
  checkb "both kinds present" true
    (List.length valid > 0 && List.length valid < n);
  (* Walk the twin's order: before each valid descriptor, the corrupt
     ones ahead of it; one consume must skip exactly those. *)
  let skipped_heads = ref 0 and corrupt = ref 0 in
  let rec walk = function
    | [] ->
        checkb "empty once the ring is drained" true
          (Option.is_none (consume_frame nic ~queue:0))
    | None :: rest ->
        incr corrupt;
        walk rest
    | Some i :: rest ->
        let before = Nic.Dma_nic.rx_corrupt_dropped nic in
        (match consume_frame nic ~queue:0 with
        | Some f ->
            checki "the next valid descriptor, in ring order" i
              (Char.code (Bytes.get f.Net.Frame.payload 0))
        | None -> Alcotest.fail "a valid descriptor was not delivered");
        let skipped = Nic.Dma_nic.rx_corrupt_dropped nic - before in
        if skipped > 0 then incr skipped_heads;
        checki "the corrupt heads ahead of it skipped" !corrupt
          (Nic.Dma_nic.rx_corrupt_dropped nic);
        walk rest
  in
  walk ring_order;
  checkb "some consume skipped a corrupt head" true (!skipped_heads > 0);
  checki "every corrupt descriptor counted" (n - List.length valid)
    (Nic.Dma_nic.rx_corrupt_dropped nic);
  checki "delivered = consumed + rejected" (Nic.Dma_nic.rx_delivered nic)
    (List.length valid + Nic.Dma_nic.rx_corrupt_dropped nic);
  let pool = Nic.Dma_nic.pool nic in
  checki "no leaked buffers" 0 (Net.Pool.outstanding pool);
  checki "acquired = released" (Net.Pool.acquired pool)
    (Net.Pool.released pool)

(* Frames larger than the 2048-byte base buffer draw from the pool's
   larger size classes like every other frame: each DMA completion
   acquires a pooled buffer, and a completion drop, a ring drop, a
   rejected descriptor or a consume returns it. Over 1,000 frames of
   4, 9 and 60 KiB the pool grows only to what one burst holds. The
   same holds when the fault plan drops every completion or corrupts
   every descriptor. *)
let test_dma_nic_large_frames_pooled () =
  let ring_size = 16 and burst = 9 in
  let sizes = [| 4096; 9 * 1024; 60 * 1024 |] in
  List.iter
    (fun (label, nic_link) ->
      let e = Sim.Engine.create () in
      let nic =
        Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
          ~config:
            {
              Nic.Dma_nic.default_config with
              Nic.Dma_nic.nqueues = 1;
              ring_size;
              coalesce_interval = 0;
            }
          ~fault:(Fault.Plan.make ~seed:3 ~nic:nic_link ())
          ~on_rx_interrupt:(fun ~queue:_ -> ())
          ()
      in
      let pool = Nic.Dma_nic.pool nic in
      let consumed = ref 0 in
      let rec drain () =
        match consume_frame nic ~queue:0 with
        | Some f ->
            checkb (label ^ ": payload intact") true
              (Array.exists (Int.equal (Bytes.length f.Net.Frame.payload)) sizes);
            incr consumed;
            drain ()
        | None -> ()
      in
      for i = 0 to 999 do
        Nic.Dma_nic.rx_from_wire nic
          (sample_frame ~payload_bytes:sizes.(i mod Array.length sizes) ());
        if i mod burst = burst - 1 then begin
          Sim.Engine.run e;
          drain ()
        end
      done;
      Sim.Engine.run e;
      drain ();
      let delivered = Nic.Dma_nic.rx_delivered nic in
      checki (label ^ ": acquired = delivered + dropped")
        (Net.Pool.acquired pool)
        (delivered + Nic.Dma_nic.rx_dropped nic
        + Nic.Dma_nic.rx_fault_dropped nic);
      checki (label ^ ": delivered = consumed + rejected") delivered
        (!consumed + Nic.Dma_nic.rx_corrupt_dropped nic);
      checki (label ^ ": nothing outstanding after the drain") 0
        (Net.Pool.outstanding pool);
      checkb
        (Printf.sprintf "%s: created %d <= base prealloc + one burst" label
           (Net.Pool.created pool))
        true
        (Net.Pool.created pool <= ring_size + burst))
    [
      ("no faults", Fault.Plan.link ());
      ("drop=1.0", Fault.Plan.link ~drop:1.0 ());
      ("corrupt=1.0", Fault.Plan.link ~corrupt:1.0 ());
    ]

(* ---------- MAC ---------- *)

(* Bursts of frames arrive at random instants, many more at once than
   the MAC's ring starts with room for, and often while the previous
   burst is still in the pipeline. Each frame reaches the sink once, in
   arrival order, exactly [pipeline_delay] after it arrived, and costs
   the engine one event. *)
let mac_ring_property =
  QCheck.Test.make ~name:"MAC delivers each frame once, in order, on time"
    ~count:200
    QCheck.(
      pair (int_bound 1_000)
        (list_of_size (Gen.int_range 1 12)
           (pair (int_bound 600) (int_range 1 40))))
    (fun (delay, bursts) ->
      let engine = Sim.Engine.create () in
      let got = ref [] in
      let mac =
        Nic.Mac.create engine ~pipeline_delay:delay
          ~sink:(fun f -> got := (f, Sim.Engine.now engine) :: !got)
          ()
      in
      let ep port =
        { Net.Frame.mac = Net.Mac_addr.broadcast; ip = Net.Ip_addr.of_int 1;
          port }
      in
      let sent = ref [] in
      let at = ref 0 in
      List.iter
        (fun (gap, n) ->
          at := !at + gap;
          let frames =
            List.init n (fun i ->
                Net.Frame.make ~src:(ep i) ~dst:(ep 0) (Bytes.make 8 'f'))
          in
          let t = !at in
          sent := !sent @ List.map (fun f -> (f, t + delay)) frames;
          ignore
            (Sim.Engine.schedule_at engine ~at:t (fun () ->
                 List.iter (Nic.Mac.rx mac) frames)))
        bursts;
      Sim.Engine.run engine;
      let got = List.rev !got in
      List.length got = List.length !sent
      && List.for_all2
           (fun (f, t) (f', t') -> f == f' && Int.equal t t')
           !sent got
      && Int.equal
           (Sim.Engine.events_processed engine)
           (List.length bursts + List.length !sent))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "nic"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "full drops" `Quick test_ring_full_drops;
          Alcotest.test_case "size validation" `Quick
            test_ring_size_validation;
          Alcotest.test_case "notify" `Quick test_ring_notify;
        ]
        @ qsuite [ ring_fifo_property ] );
      ("mac", qsuite [ mac_ring_property ]);
      ( "iommu",
        [
          Alcotest.test_case "hit/miss/fault" `Quick test_iommu_hit_miss_fault;
          Alcotest.test_case "lru eviction" `Quick test_iommu_lru_eviction;
          Alcotest.test_case "unmap" `Quick test_iommu_unmap;
          Alcotest.test_case "a hit allocates nothing" `Quick
            test_iommu_hit_allocates_nothing;
          Alcotest.test_case "an evicting miss allocates nothing" `Quick
            test_iommu_evicting_miss_allocates_nothing;
        ]
        @ qsuite [ iommu_matches_stamp_model ] );
      ( "rss",
        [
          Alcotest.test_case "deterministic" `Quick test_rss_deterministic;
          Alcotest.test_case "spreads flows" `Quick test_rss_spreads_flows;
          Alcotest.test_case "key dependence" `Quick test_rss_key_dependence;
          Alcotest.test_case "toeplitz zero input" `Quick
            test_toeplitz_zero_input;
          Alcotest.test_case "microsoft spec vectors" `Quick
            test_rss_spec_vectors;
        ] );
      ( "msix",
        [
          Alcotest.test_case "moderation" `Quick
            test_msix_immediate_then_moderated;
          Alcotest.test_case "mask latches" `Quick test_msix_mask_latches;
        ] );
      ( "dma_nic",
        [
          Alcotest.test_case "rx to ring + interrupt" `Quick
            test_dma_nic_rx_to_ring_and_interrupt;
          Alcotest.test_case "steering override" `Quick
            test_dma_nic_steering_override;
          Alcotest.test_case "transmit delay" `Quick
            test_dma_nic_transmit_delay;
          Alcotest.test_case "ring overflow releases buffers" `Quick
            test_dma_nic_ring_overflow_no_leak;
          Alcotest.test_case "mixed corrupt descriptors skipped in ring order"
            `Quick test_dma_nic_mixed_corrupt_in_ring_order;
          Alcotest.test_case "corrupt descriptors skipped" `Quick
            test_dma_nic_corrupt_descriptors_skipped;
          Alcotest.test_case "large frames are pooled" `Quick
            test_dma_nic_large_frames_pooled;
        ] );
    ]
