(** The transmit half of a Lauberhorn end-point (paper §5.1: "The
    transmit path uses a similar, disjoint set of cache lines").

    Two NIC-homed TX CONTROL lines, used alternately: the CPU stores a
    prepared request line; the store becomes visible at the home agent
    one store-release later, where the NIC picks it up (assembling and
    emitting the actual frame is the owner's callback). Two lines give
    one send of pipelining; a third concurrent send waits for the
    oldest line to drain — the same two-credit discipline as the
    receive side, and the CPU-side wait is backpressure, not loss. *)

type t

val create :
  Coherence.Home_agent.t -> Config.t -> on_line:(bytes -> unit) -> unit -> t
(** [on_line] is the NIC-side consumer of each stored line image. *)

val cpu_send : t -> bytes -> accepted:(unit -> unit) -> unit
(** Store a line image from the CPU side. [accepted] fires when the
    store has been issued — immediately if a TX line is free, else
    after the NIC drains one (sender backpressure).
    @raise Invalid_argument if the image exceeds the line size. *)

val in_flight : t -> int
(** Stores issued whose lines the NIC has not yet consumed (≤ 2). *)

val backpressure_stalls : t -> int
(** Sends that had to wait for a free TX line. *)
