(** Point-to-point Ethernet link model.

    Serialization delay is wire bytes (plus preamble, FCS, and
    inter-packet gap) over the configured rate; frames queue FIFO when
    the transmitter is busy; propagation delay is added per frame. The
    link is lossless: seeded loss and corruption come from a
    [Fault.Link] placed in front of it. *)

type t

val create :
  Sim.Engine.t -> gbps:float -> propagation:Sim.Units.duration ->
  deliver:(Frame.t -> unit) -> unit -> t
(** A unidirectional link delivering frames to [deliver]. *)

val serialization_delay : gbps:float -> bytes:int -> Sim.Units.duration
(** Time for [bytes] plus the 24-byte per-frame preamble, SFD, FCS and
    inter-packet gap at the given rate. *)

val transmit : t -> Frame.t -> unit
(** Enqueue a frame for transmission now. *)

val frames_sent : t -> int
