(** A hash table from [int] keys to values, by open addressing.

    Keys sit in one [int] array and values in another, beside it. A key
    is found by linear probing from a multiplicative hash, and a
    removal shifts the later entries of its probe run back into the
    hole, so the table keeps no tombstones. Nothing is boxed: [find],
    [mem], [replace], [remove] and [length] allocate nothing once the
    table has grown to its peak. It doubles when more than half of its
    slots are full.

    Every [int] is a key except [min_int], which marks an empty slot. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n] is an empty table of [n] slots, rounded up to a
    power of two and at least 8, so it holds [n / 2] entries before it
    first grows. A free slot holds [dummy], so a removed value is not
    kept alive. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is absent (a constant exception: the
    miss allocates nothing either). *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, over any binding it had.
    @raise Invalid_argument on [min_int]. *)

val remove : 'a t -> int -> unit
(** Unbind the key; nothing happens if it is absent. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Over every binding, in slot order: an order that depends on the
    keys and on the table's size, so a caller that needs an order sorts
    what it folds. *)
