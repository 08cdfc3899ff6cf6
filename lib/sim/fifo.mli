(** A growable ring of values, oldest first.

    The queue behind an event closure built once: a component whose
    events all take one constant delay lands them in the order they
    were scheduled (the engine breaks a tie on the instant by
    scheduling order), so it pushes each event's data here and
    schedules its one closure, which pops the oldest. Unlike [Queue],
    a push allocates no cell; the ring doubles when full. Vacated
    slots hold the [empty] value given at creation, so a popped value
    is not retained. *)

type 'a t

val create : 'a -> 'a t
(** An empty ring whose vacated slots hold the given value. Its first
    push allocates room for 8. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** The oldest value.
    @raise Invalid_argument if the ring is empty. *)

val length : 'a t -> int
(** The number of values held. *)
