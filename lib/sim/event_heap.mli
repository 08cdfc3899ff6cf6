(** Binary min-heap of timestamped events with O(log n) insert/pop and
    O(1) cancellation.

    Ties on the timestamp are broken by insertion order, so the simulation
    is deterministic: two events scheduled for the same instant fire in
    the order they were scheduled. Cancellation is lazy — a cancelled
    entry stays in the heap until it surfaces or until cancelled entries
    become the majority, at which point the heap compacts in place.

    Entries are stored unboxed (no [option] wrapper); a push performs
    exactly one allocation, the entry itself, which doubles as the
    cancellation handle. *)

type 'a t
(** Heap carrying payloads of type ['a]. *)

type 'a handle
(** Identifies a scheduled entry; used to cancel it. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** True when no live (non-cancelled) entry remains. *)

val live_count : 'a t -> int
(** Number of scheduled entries not yet popped or cancelled. *)

val push : 'a t -> time:Units.time -> 'a -> 'a handle
(** Schedule a payload at the given time; returns a cancellation handle. *)

val cancel : 'a t -> 'a handle -> unit
(** Cancel a scheduled entry. Cancelling an already-popped or
    already-cancelled entry is a no-op. *)

val pop : 'a t -> (Units.time * 'a) option
(** Remove and return the earliest live entry, or [None] if empty. *)

val peek_time : 'a t -> Units.time option
(** Timestamp of the earliest live entry without removing it. *)

val validate : 'a t -> (unit, string) result
(** Structural self-check: heap order over the stored prefix and
    agreement between the cancelled flags and {!live_count}. O(n);
    meant for sanitizer builds and tests, not the hot path. *)
