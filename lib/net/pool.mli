(** Freelists of reusable frame buffers, in size classes.

    The simulated NIC datapaths preallocate their descriptor-ring
    buffers here instead of allocating per packet, mirroring the
    kernel-bypass discipline of real NICs. [acquire]/[release] are O(1)
    and allocation-free in steady state (each freelist is an array
    stack, not a cons list); the pool grows on demand when drained and
    keeps full accounting so tests can assert that every acquired
    buffer comes back.

    Buffers come in size classes: class [k] holds buffers of exactly
    [buffer_bytes * 2^k] bytes. {!acquire} serves a request of [len]
    bytes from the smallest class that fits it, so a frame larger than
    the base buffer still gets a pooled, reused buffer (at most twice
    its size) instead of a fresh allocation. Only the base class is
    preallocated; a larger class is created the first time a request
    needs it. The counters below cover every class together. *)

type t

type monitor = {
  on_acquire : bytes -> unit;
  on_release : bytes -> unit;
}
(** Observation hooks for sanitizers: [on_acquire] runs after a buffer
    of any class leaves the pool, [on_release] just before one
    re-enters its freelist (so the monitor may poison its contents). *)

val create : ?prealloc:int -> buffer_bytes:int -> unit -> t
(** A pool whose base class holds buffers of exactly [buffer_bytes],
    with [prealloc] of them allocated up front (default 0). *)

val set_monitor : t -> monitor option -> unit
(** Install (or clear) the monitor. With [None] — the default — the
    hot path pays a single branch per acquire/release. *)

val acquire : t -> len:int -> bytes
(** A buffer of the smallest class holding [len] bytes: from that
    class's freelist, or a fresh one if the list is empty. Contents
    are arbitrary (previous packet's bytes) — writers must overwrite
    or zero what they use.
    @raise Invalid_argument if [len] is negative. *)

val release : t -> bytes -> unit
(** Return a buffer to its class's freelist. Any slice into it becomes
    invalid.
    @raise Invalid_argument on a buffer whose size is not a class size
    of this pool, or when releases into its class would exceed
    acquires from it (double-release indicator). *)

val acquired : t -> int
(** Total acquires over the pool's lifetime. *)

val released : t -> int
(** Total releases over the pool's lifetime. *)

val outstanding : t -> int
(** [acquired - released]: buffers currently held by callers. Zero at
    drain iff every acquire was matched by a release. *)

val idle : t -> int
(** Buffers sitting in the freelists now. *)

val created : t -> int
(** Buffers ever allocated (steady state stops increasing this). *)

val high_water : t -> int
(** Maximum simultaneous outstanding buffers observed. *)
