(** Binary min-heap of timestamped events with O(log n) insert, pop and
    cancellation, and no allocation per event.

    Ties on the timestamp are broken by insertion order, so the simulation
    is deterministic: two events scheduled for the same instant fire in
    the order they were scheduled.

    The heap orders [(time, seq, slot)] triples held in parallel [int]
    arrays; a payload lives in its slot, and freed slots are reused. A
    handle is an [int] that packs the slot with the entry's [seq], so a
    handle outlives its entry safely: cancelling it after the entry was
    taken or cancelled — even once the slot holds another entry — is a
    no-op. Cancellation removes the entry at once. Once the arrays have
    grown to the peak number of pending entries, {!push}, {!cancel},
    {!min_time} and {!take} allocate nothing. *)

type 'a t
(** Heap carrying payloads of type ['a]. *)

type 'a handle
(** Identifies a scheduled entry; used to cancel it. *)

val create : unit -> 'a t

val no_handle : 'a handle
(** A handle that names no entry: {!cancel} ignores it. For fields that
    hold "no timer armed". *)

val is_empty : 'a t -> bool
(** True when no entry is pending. *)

val live_count : 'a t -> int
(** Number of scheduled entries not yet taken or cancelled. *)

val no_time : Units.time
(** What {!min_time} answers for an empty heap ([min_int]). {!push}
    refuses it, so it never names a real entry's time. *)

val push : 'a t -> time:Units.time -> 'a -> 'a handle
(** Schedule a payload at the given time; returns a cancellation handle.

    @raise Invalid_argument if [time] is {!no_time}, if more than
    2{^ 24} entries would be pending at once, or once 2{^ 38} entries
    have been pushed (handles never wrap). *)

val cancel : 'a t -> 'a handle -> unit
(** Remove a scheduled entry now. Cancelling a taken or already
    cancelled entry, or {!no_handle}, is a no-op. *)

val min_time : 'a t -> Units.time
(** Timestamp of the earliest entry, or {!no_time} if none is pending. *)

val take : 'a t -> 'a
(** Remove the earliest entry and return its payload; its time is what
    {!min_time} answered just before.

    @raise Invalid_argument if no entry is pending. *)

val pop : 'a t -> (Units.time * 'a) option
(** {!min_time} then {!take}, or [None] if empty. *)

val peek_time : 'a t -> Units.time option
(** {!min_time} as an option: [None] if empty. *)

val validate : 'a t -> (unit, string) result
(** Structural self-check: heap order over the pending prefix, and
    agreement between the heap positions, the slot index and the free
    slots. O(n); meant for sanitizer builds and tests, not the hot
    path. *)
