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

val no_time : Units.time
(** What {!min_time} answers for a heap with no live entry ([min_int]).
    {!push} refuses it, so it never names a real entry's time. *)

val push : 'a t -> time:Units.time -> 'a -> 'a handle
(** Schedule a payload at the given time; returns a cancellation handle.

    @raise Invalid_argument if [time] is {!no_time}. *)

val cancel : 'a t -> 'a handle -> unit
(** Cancel a scheduled entry. Cancelling an already-popped or
    already-cancelled entry is a no-op. *)

val min_time : 'a t -> Units.time
(** Timestamp of the earliest live entry, or {!no_time} if none is
    live. Cancelled entries found at the root are dropped on the way.
    Allocates nothing. *)

val take : 'a t -> 'a
(** Remove the earliest live entry and return its payload; its time is
    what {!min_time} answered just before. Allocates nothing.

    @raise Invalid_argument if no live entry remains. *)

val pop : 'a t -> (Units.time * 'a) option
(** {!min_time} then {!take}, or [None] if empty. *)

val peek_time : 'a t -> Units.time option
(** {!min_time} as an option: [None] if empty. *)

val validate : 'a t -> (unit, string) result
(** Structural self-check: heap order over the stored prefix and
    agreement between the cancelled flags and {!live_count}. O(n);
    meant for sanitizer builds and tests, not the hot path. *)
