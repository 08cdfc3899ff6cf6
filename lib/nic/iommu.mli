(** IOMMU/SMMU address translation on the DMA path.

    Models what matters for the receive path: a device DMA must
    translate its target address, hitting a small IOTLB or paying a
    multi-level page-table walk. The paper (§3) notes the IOMMU's dual
    role — data-path translation vs. trust boundary; this model prices
    the data-path role for the DMA baselines. *)

type t

val create :
  ?iotlb_entries:int -> ?hit_cost:Sim.Units.duration ->
  ?walk_cost:Sim.Units.duration -> unit -> t
(** Defaults: 64-entry IOTLB, 20 ns hit, 250 ns 4-level walk, 4 KiB
    pages, LRU replacement. The IOTLB keeps its entries in recency
    order, so a hit, a miss and an eviction each take constant time;
    {!translate} allocates nothing on a hit or a miss. *)

val map : t -> iova:int -> len:int -> unit
(** Establish a mapping (driver posting receive buffers). Unmapped
    accesses raise — the firewall role. *)

val unmap : t -> iova:int -> len:int -> unit

val translate : t -> iova:int -> Sim.Units.duration
(** Translation cost for one access.
    @raise Invalid_argument on an unmapped address (DMA fault). *)

val hits : t -> int
val misses : t -> int
val faults : t -> int
(** Count of rejected (unmapped) accesses: each [None] from
    {!translate_opt}, and each {!translate} that raised. *)

val translate_opt : t -> iova:int -> Sim.Units.duration option
(** Like {!translate} but returns [None] on a fault, counting it. *)
