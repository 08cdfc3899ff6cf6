(** A free list of reusable slot records.

    A component whose events carry per-event data with varying delays
    (so the events fire in any order, unlike {!Fifo}'s) holds each
    event's data in a mutable slot record whose event closure it builds
    once, when it makes the slot. A firing slot clears what it holds
    and goes back here. The free slots are a stack in an array: taking
    or releasing one allocates nothing once the array has grown to the
    pool's peak. *)

type 'a t

val create : unit -> 'a t
(** An empty pool. Its first release allocates room for 8 slots. *)

val is_empty : 'a t -> bool
(** No free slot: the caller makes a fresh one. *)

val length : 'a t -> int
(** Free slots. *)

val take : 'a t -> 'a
(** The most recently released free slot.
    @raise Invalid_argument if the pool is empty. *)

val release : 'a t -> 'a -> unit
(** Give a slot back. A slot must not be released twice before it is
    taken again. *)
