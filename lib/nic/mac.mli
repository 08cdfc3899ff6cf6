(** Ethernet MAC receive block shared by all NIC models.

    Prices the fixed per-frame hardware pipeline between the wire and
    the NIC's packet logic (PCS/MAC, FCS check, buffering). Frames in
    the pipeline wait in a ring drained by one event closure built at
    {!create}, so a frame costs one engine event and no closure. *)

type t

val create :
  Sim.Engine.t -> ?pipeline_delay:Sim.Units.duration ->
  sink:(Net.Frame.t -> unit) -> unit -> t
(** [pipeline_delay] defaults to 300 ns — a 100 Gb/s MAC + parser at
    FPGA clocks; ASIC NICs are faster but the constant is shared by
    all compared systems, so it cancels in comparisons. *)

val rx : t -> Net.Frame.t -> unit
(** Frame arriving from the wire; reaches the sink after the pipeline
    delay, in arrival order. *)

