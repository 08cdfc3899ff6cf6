(** Latency/bandwidth profiles for host–device interconnects.

    A profile prices the primitive CPU↔device interactions the rest of
    the simulator composes. Three stand-ins reproduce the platforms in
    the paper's Figure 2, plus an anticipated CXL 3.0 profile:

    - {!eci}: the Enzian Coherence Interface — 128-byte cache lines
      homed on the FPGA; numbers follow Ruzhanskaia et al. 2024 and the
      Enzian ASPLOS'22 paper (one cache-line fill from the FPGA in the
      700 ns range, 2 GHz ThunderX-1 cores).
    - {!pcie_enzian}: a conventional DMA NIC on the same machine
      (descriptor fetch, payload DMA, MSI-X interrupt, slow MMIO).
    - {!pcie_modern}: the same structure on a current PCIe Gen4 server
      (lower absolute numbers, same shape).
    - {!cxl3}: coherent load/store to device memory with modern ns
      costs, showing the paper's "we anticipate comparable gains with
      CXL 3.0". *)

type profile = {
  name : string;
  cache_line_bytes : int;
  core_freq : Sim.Units.freq;
  (* Coherent-path primitives *)
  load_request : Sim.Units.duration;
      (** CPU load miss on a device-homed line: miss reaching the device
          home agent (request half of the round trip). *)
  load_response : Sim.Units.duration;
      (** Device's fill response reaching the CPU's L1/registers. *)
  store_release : Sim.Units.duration;
      (** CPU store (write-back/flush) to a device-homed line becoming
          visible at the device. *)
  fetch_exclusive : Sim.Units.duration;
      (** Device pulling one dirty line out of a CPU cache. *)
  (* DMA/PIO-path primitives *)
  mmio_read : Sim.Units.duration;  (** Uncached PIO read, full RTT. *)
  mmio_write : Sim.Units.duration;  (** Posted PIO write (doorbell). *)
  dma_read : Sim.Units.duration;
      (** Device-initiated read of one descriptor-sized block from DRAM
          (latency part; streaming priced by bandwidth). *)
  dma_write : Sim.Units.duration;
      (** Device-initiated write of one block into DRAM. *)
  dma_bandwidth_gbps : float;  (** Payload streaming rate. *)
  coherent_bandwidth_gbps : float;
      (** Effective streaming rate of back-to-back cache-line fills:
          lower than the DMA rate because of per-line protocol
          handshakes — this gap is what creates the paper's ~4 KiB
          DMA-fallback crossover (§6). *)
  interrupt_latency : Sim.Units.duration;
      (** MSI-X signal to first instruction of the ISR on an idle core. *)
}

val eci : profile
val pcie_enzian : profile
val pcie_modern : profile
val cxl3 : profile

val all : profile list

val coherent_rtt : profile -> Sim.Units.duration
(** [load_request + load_response]: the ping of a coherent interaction. *)

val line_transfer : profile -> bytes:int -> Sim.Units.duration
(** Time to move [bytes] as whole cache lines over the coherent path:
    the first fill pays the full round trip; subsequent fills pipeline
    behind it at the coherent streaming bandwidth. *)

val dma_transfer : profile -> bytes:int -> Sim.Units.duration
(** Latency component + streaming time of a DMA of [bytes]. *)

