(** A fault injector wrapping one directed frame link.

    Sits between a sender's [Frame.t -> unit] and the receiver's
    ingress: applies the scripted and probabilistic faults of a
    {!Plan.link} and counts everything it does. Delivery of unfaulted
    frames is synchronous (no added latency — the wire model underneath
    still prices serialization); reordered and duplicated frames are
    re-scheduled through the engine with a seeded extra delay.

    All RNG draws are guarded on the corresponding probability being
    positive: an injector with no faults is pass-through and consumes
    no randomness. *)

type t

val create :
  Sim.Engine.t ->
  plan:Plan.link ->
  rng:Sim.Rng.t ->
  deliver:(Net.Frame.t -> unit) ->
  unit ->
  t

val send : t -> Net.Frame.t -> unit

val flip_checksummed :
  Sim.Rng.t -> payload_len:int -> bytes -> len:int -> unit
(** Flip one byte of the frame encoded at [b[0, len)], whose UDP
    payload is [payload_len] bytes long, within the region the receiver's
    IPv4/UDP checksums cover (never the UDP checksum field itself,
    whose zeroing would read as "checksum absent"), so the existing
    validation rejects the frame deterministically. Shared with the
    DMA-corruption injector in [Nic.Dma_nic]. *)

val counters : t -> prefix:string -> (string * int) list
(** All counters (monotonic) as [(prefix ^ name, value)] pairs. *)
