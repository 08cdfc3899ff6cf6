(** Lauberhorn platform configuration.

    Bundles an interconnect profile with the NIC-design parameters the
    paper fixes in §5–6: the 15 ms TRYAGAIN timeout, the ~4 KiB
    DMA-fallback threshold, the endpoint geometry (two CONTROL lines
    plus auxiliary lines), and the hardware pipeline stage costs. *)

type t = {
  profile : Coherence.Interconnect.profile;
  tryagain_timeout : Sim.Units.duration;
      (** How long the NIC may park a cache fill before answering with
          a TRYAGAIN dummy (paper: 15 ms, bounded by the coherence
          protocol's bus-error timeout). *)
  dma_threshold : int;
      (** Payloads larger than this revert to DMA transfer (paper §6:
          empirically ~4 KiB on Enzian). *)
  aux_lines : int;
      (** Auxiliary cache lines per endpoint for multi-line payloads. *)
  nic_queue_depth : int;
      (** Per-endpoint SRAM request queue on the NIC. *)
  parse_delay : Sim.Units.duration;
      (** Streaming header decoders (Ethernet/IP/UDP strip). *)
  demux_delay : Sim.Units.duration;
      (** Flow-table and scheduling-state lookup. *)
  deser : Rpc.Deser_cost.profile;
      (** Hardware unmarshal pipeline pricing. *)
  tryagains_before_yield : int;
      (** User-mode loop policy: consecutive TRYAGAINs before the
          process yields its core back to the kernel (dynamic
          down-scaling, §5.2). *)
  encrypt : bool;
      (** Inline AES-GCM on every frame through the NIC pipeline
          (§6). Adds {!Crypto.aes_gcm_nic} time per packet, no CPU. *)
  shed : bool;
      (** NIC admission control: overloaded services NACK arrivals on
          the wire ({!Nic_sched.Shed}) instead of queueing them to a
          silent SRAM drop. Off by default — the paper's base design —
          so pre-existing experiments are untouched. *)
  sanitize : bool;
      (** Attach the runtime sanitizers ({!Sanitize}) to the stack:
          coherence generation discipline, event-loop monotonicity,
          scheduler-mirror convergence, pool accounting. Off by
          default — every hook is then [None] and costs one branch. *)
}

val enzian : t
(** ECI on Enzian, the paper's prototype platform. *)

val modern : t
(** The same design on a CXL 3.0-class server — the paper's
    "we anticipate comparable gains with CXL 3.0". *)

val with_timeout : t -> Sim.Units.duration -> t
val with_encryption : t -> bool -> t
val with_dma_threshold : t -> int -> t
val with_shed : t -> bool -> t
val with_sanitize : t -> bool -> t

val control_header_bytes : int
(** Fixed header of a request CONTROL line (see {!Message}). *)

val inline_capacity : t -> int
(** Argument bytes carried in the first CONTROL line. *)

val endpoint_window : t -> int
(** Maximum unmarshaled-argument bytes an endpoint can deliver without
    DMA fallback: inline + aux capacity. *)
