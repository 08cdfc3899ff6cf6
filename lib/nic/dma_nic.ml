type config = {
  nqueues : int;
  ring_size : int;
  coalesce_interval : Sim.Units.duration;
  use_iommu : bool;
  mac_pipeline : Sim.Units.duration;
  descriptor_write : Sim.Units.duration;
}

let default_config =
  {
    nqueues = 4;
    ring_size = 512;
    coalesce_interval = Sim.Units.us 20;
    use_iommu = true;
    mac_pipeline = 300;
    descriptor_write = 150;
  }

type queue = {
  ring : bytes Ring.t;
  msix : Msix.t;
  buf_base : int;  (* synthetic IOVA region for this queue's buffers *)
}

(* A frame in flight inside the NIC, in a slot whose completion
   closure is built once, when the slot is made: receive DMA into the
   host, or transmit DMA out of it. Each frame's delay depends on its
   size and, on receive, its IOTLB lookup, so completions fire in any
   order. A firing slot clears what it holds and goes back to its pool
   before it completes. *)
type rx_slot = {
  mutable rx_frame : Net.Frame.t;
  mutable rx_queue : int;
  rx_fire : unit -> unit;
}

type tx_slot = {
  mutable tx_frame : Net.Frame.t;
  mutable tx_via : Net.Frame.t -> unit;
  tx_fire : unit -> unit;
}

type t = {
  engine : Sim.Engine.t;
  prof : Coherence.Interconnect.profile;
  cfg : config;
  rss : Rss.t;
  queues : queue array;
  iommu : Iommu.t option;
  mac : Mac.t;
  pool : Net.Pool.t;
  fault : Fault.Plan.link;
  frng : Sim.Rng.t;  (* fault stream; drawn from only when faults are on *)
  mutable delivered : int;
  mutable fault_dropped : int;  (* forced completion drops (plan.nic.drop) *)
  mutable corrupt_dropped : int;  (* descriptors the driver check rejected *)
  mutable steering : (Net.Frame.t -> int) option;
  mutable steering_cost : int;
      (* statically verified per-packet cost of the installed steering
         program (ns); 0 when steering is off — the off path charges
         nothing. *)
  rx_slots : rx_slot Sim.Slot_pool.t;
  tx_slots : tx_slot Sim.Slot_pool.t;
}

(* The pool's base class and the IOVA stride of a ring slot. A larger
   frame takes a buffer from a larger pool class but keeps its slot's
   IOVA, so the IOTLB sees the same addresses for every frame size. *)
let buffer_bytes = 2048

let queue t q =
  if q < 0 || q >= Array.length t.queues then
    invalid_arg (Printf.sprintf "Dma_nic: no queue %d" q);
  t.queues.(q)

(* DMA completion: the wire bytes land in a pooled receive buffer of
   the smallest size class that holds them, from its first byte, and
   the descriptor is the buffer and the frame's length — the driver
   checks and decodes in place and returns the buffer at consume. *)
let[@hot_path] rx_dma_done t s =
  let frame = s.rx_frame in
  let q = t.queues.(s.rx_queue) in
  s.rx_frame <- Net.Frame.empty;
  Sim.Slot_pool.release t.rx_slots s;
  let buf = Net.Pool.acquire t.pool ~len:(Net.Frame.wire_size frame) in
  let len = Net.Frame.encode_into frame buf in
  if
    t.fault.Fault.Plan.drop > 0.
    && Sim.Rng.float t.frng < t.fault.Fault.Plan.drop
  then begin
    (* Injected completion fault: the frame vanishes at the DMA stage —
       a counted tail drop that must release its pooled buffer like any
       other rejection. *)
    t.fault_dropped <- t.fault_dropped + 1;
    Net.Pool.release t.pool buf
  end
  else begin
    if
      t.fault.Fault.Plan.corrupt > 0.
      && Sim.Rng.float t.frng < t.fault.Fault.Plan.corrupt
    then
      (* DMA corruption: the descriptor's bytes are damaged in host
         memory; the driver's in-place check (checksums) rejects it at
         [consume]. *)
      Fault.Link.flip_checksummed t.frng
        ~payload_len:(Bytes.length frame.Net.Frame.payload) buf ~len;
    if Ring.produce q.ring buf ~len then begin
      t.delivered <- t.delivered + 1;
      Msix.raise_event q.msix
    end
    else Net.Pool.release t.pool buf
  end

let new_rx_slot t =
  let rec s =
    {
      rx_frame = Net.Frame.empty;
      rx_queue = 0;
      rx_fire = (fun () -> rx_dma_done t s);
    }
  in
  s

(* Receive-path hardware steps for one frame. *)
let rx_frame t frame =
  let qi =
    match t.steering with
    | Some f -> f frame mod Array.length t.queues
    | None -> Rss.queue_of_frame t.rss frame
  in
  let q = queue t qi in
  let translate_cost =
    match t.iommu with
    | Some mmu ->
        let slot = Ring.produced q.ring land (t.cfg.ring_size - 1) in
        Iommu.translate mmu ~iova:(q.buf_base + (slot * buffer_bytes))
    | None -> 0
  in
  let payload_dma =
    Coherence.Interconnect.dma_transfer t.prof
      ~bytes:(Net.Frame.wire_size frame)
  in
  let steer_cost = match t.steering with Some _ -> t.steering_cost | None -> 0 in
  let total = steer_cost + translate_cost + payload_dma + t.cfg.descriptor_write in
  let s =
    if Sim.Slot_pool.is_empty t.rx_slots then new_rx_slot t
    else Sim.Slot_pool.take t.rx_slots
  in
  s.rx_frame <- frame;
  s.rx_queue <- qi;
  ignore (Sim.Engine.schedule_after t.engine ~after:total s.rx_fire)

let create engine prof ?(config = default_config) ?(fault = Fault.Plan.none)
    ?metrics ~on_rx_interrupt () =
  if config.nqueues <= 0 then invalid_arg "Dma_nic.create: nqueues <= 0";
  let iommu = if config.use_iommu then Some (Iommu.create ()) else None in
  let queues =
    Array.init config.nqueues (fun q ->
        let buf_base = (q + 1) * 0x1000_0000 in
        (match iommu with
        | Some mmu ->
            Iommu.map mmu ~iova:buf_base
              ~len:(config.ring_size * buffer_bytes)
        | None -> ());
        {
          ring = Ring.create ~size:config.ring_size;
          msix =
            Msix.create engine ~min_interval:config.coalesce_interval
              ~fire:(fun () -> on_rx_interrupt ~queue:q)
              ();
          buf_base;
        })
  in
  (* The MAC's sink needs [t], which needs the MAC: tie the knot. *)
  let sink_ref = ref (fun (_ : Net.Frame.t) -> ()) in
  let mac =
    Mac.create engine ~pipeline_delay:config.mac_pipeline
      ~sink:(fun f -> !sink_ref f)
      ()
  in
  let t =
    {
      engine;
      prof;
      cfg = config;
      rss = Rss.create ~queues:config.nqueues ();
      queues;
      iommu;
      mac;
      pool = Net.Pool.create ~prealloc:config.ring_size ~buffer_bytes ();
      fault = fault.Fault.Plan.nic;
      frng = Fault.Plan.derived_rng fault ~salt:11;
      delivered = 0;
      fault_dropped = 0;
      corrupt_dropped = 0;
      steering = None;
      steering_cost = 0;
      rx_slots = Sim.Slot_pool.create ();
      tx_slots = Sim.Slot_pool.create ();
    }
  in
  sink_ref := (fun f -> rx_frame t f);
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.derive m "nic_ring_drops" (fun () ->
          Array.fold_left (fun acc q -> acc + Ring.drops q.ring) 0 t.queues);
      Obs.Metrics.derive m "nic_fault_drops" (fun () -> t.fault_dropped);
      Obs.Metrics.derive m "nic_corrupt_drops" (fun () -> t.corrupt_dropped);
      Obs.Metrics.derive m "pool_outstanding" (fun () ->
          Net.Pool.outstanding t.pool));
  t

let rx_from_wire t frame = Mac.rx t.mac frame

let set_steering ?(cost = 0) t f =
  if cost < 0 then invalid_arg "Dma_nic.set_steering: cost < 0";
  t.steering <- Some f;
  t.steering_cost <- cost

let rss t = t.rss
let nqueues t = Array.length t.queues
let rx_ring t ~queue:q = (queue t q).ring

let rx_pending t =
  Array.fold_left (fun n q -> n + Ring.occupancy q.ring) 0 t.queues

(* Driver-side receive: check the oldest descriptor's bytes in place,
   hand its buffer to [f], then return the buffer to the pool, so
   nothing [f] keeps may alias it. A descriptor whose bytes fail the
   check (DMA corruption under a fault plan) is counted, its buffer
   released, and the next descriptor tried — [false] still means "ring
   empty", never "bad frame", so NAPI/poll loops cannot stall on a
   corrupt head. *)
let[@hot_path] rec consume t ~queue:q f =
  let ring = (queue t q).ring in
  if Ring.is_empty ring then false
  else begin
    let len = Ring.head_len ring in
    let buf = Ring.consume ring in
    match Net.Frame.check buf ~off:0 ~len with
    | Ok () ->
        f buf;
        Net.Pool.release t.pool buf;
        true
    | Error _ ->
        t.corrupt_dropped <- t.corrupt_dropped + 1;
        Net.Pool.release t.pool buf;
        consume t ~queue:q f
  end

let pool t = t.pool
let mask_irq t ~queue:q = Msix.mask (queue t q).msix
let unmask_irq t ~queue:q = Msix.unmask (queue t q).msix

let no_via (_ : Net.Frame.t) = ()

(* Transmit completion: the frame reaches the wire. *)
let[@hot_path] tx_dma_done t s =
  let frame = s.tx_frame in
  let via = s.tx_via in
  s.tx_frame <- Net.Frame.empty;
  s.tx_via <- no_via;
  Sim.Slot_pool.release t.tx_slots s;
  via frame

let new_tx_slot t =
  let rec s =
    {
      tx_frame = Net.Frame.empty;
      tx_via = no_via;
      tx_fire = (fun () -> tx_dma_done t s);
    }
  in
  s

let transmit t frame ~via =
  (* Descriptor fetch, then payload DMA read, then the wire. *)
  let cost =
    t.prof.Coherence.Interconnect.dma_read
    + Coherence.Interconnect.dma_transfer t.prof
        ~bytes:(Net.Frame.wire_size frame)
  in
  let s =
    if Sim.Slot_pool.is_empty t.tx_slots then new_tx_slot t
    else Sim.Slot_pool.take t.tx_slots
  in
  s.tx_frame <- frame;
  s.tx_via <- via;
  ignore (Sim.Engine.schedule_after t.engine ~after:cost s.tx_fire)

let rx_delivered t = t.delivered

let rx_dropped t =
  Array.fold_left (fun acc q -> acc + Ring.drops q.ring) 0 t.queues

let rx_fault_dropped t = t.fault_dropped
let rx_corrupt_dropped t = t.corrupt_dropped

let interrupts_fired t =
  Array.fold_left (fun acc q -> acc + Msix.fired q.msix) 0 t.queues

let interrupts_suppressed t =
  Array.fold_left (fun acc q -> acc + Msix.suppressed q.msix) 0 t.queues

