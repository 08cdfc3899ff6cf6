(** Freelist of reusable fixed-size frame buffers.

    The simulated NIC datapaths preallocate their descriptor-ring
    buffers here instead of allocating per packet, mirroring the
    kernel-bypass discipline of real NICs. [acquire]/[release] are O(1)
    and allocation-free in steady state (the freelist is an array
    stack, not a cons list); the pool grows on demand when drained and
    keeps full accounting so tests can assert that every acquired
    buffer comes back. *)

type t

type monitor = {
  on_acquire : bytes -> unit;
  on_release : bytes -> unit;
}
(** Observation hooks for sanitizers: [on_acquire] runs after a buffer
    leaves the pool, [on_release] just before one re-enters the
    freelist (so the monitor may poison its contents). *)

val create : ?prealloc:int -> buffer_bytes:int -> unit -> t
(** A pool handing out buffers of exactly [buffer_bytes], with
    [prealloc] of them allocated up front (default 0). *)

val set_monitor : t -> monitor option -> unit
(** Install (or clear) the monitor. With [None] — the default — the
    hot path pays a single branch per acquire/release. *)

val acquire : t -> bytes
(** A buffer from the freelist, or a fresh one if the list is empty.
    Contents are arbitrary (previous packet's bytes) — writers must
    overwrite or zero what they use. *)

val release : t -> bytes -> unit
(** Return a buffer to the freelist. Any slice into it becomes invalid.
    @raise Invalid_argument on a wrong-size buffer or when releases
    would exceed acquires (double-release indicator). *)

val acquired : t -> int
(** Total acquires over the pool's lifetime. *)

val released : t -> int
(** Total releases over the pool's lifetime. *)

val outstanding : t -> int
(** [acquired - released]: buffers currently held by callers. Zero at
    drain iff every acquire was matched by a release. *)

val idle : t -> int
(** Buffers sitting in the freelist now. *)

val created : t -> int
(** Buffers ever allocated (steady state stops increasing this). *)

val high_water : t -> int
(** Maximum simultaneous outstanding buffers observed. *)

