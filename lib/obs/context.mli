(** The compact cross-fabric trace context.

    A traced RPC that leaves its origin shard carries these 16 bytes
    inside its wire message (see [Rpc.Wire_format]'s context
    extension): the trace id (the rpc id by convention), the id of the
    parent span on the origin's tracer, and the origin host index.
    Every hop can then attribute its own spans to the same causal tree
    without sharing any tracer state across shards — stitching happens
    after the run, from per-shard tracers, in {!Stitch}. *)

type t = {
  trace : int;  (** Trace (= RPC) id the carried spans belong to. *)
  parent : int;  (** Root span id on the origin's tracer. *)
  origin : int;  (** Origin host index (uplink planes use [hosts]). *)
}

val size : int
(** Encoded size: 16 bytes. *)

val to_bytes : t -> bytes
(** @raise Invalid_argument when [parent] or [origin] exceeds u32, or
    on a negative [trace]. *)

val of_bytes : bytes -> t option
(** [None] unless the input is exactly {!size} bytes and its trace id
    lies in [[0, 2^62)], the range of a wire rpc id. *)

