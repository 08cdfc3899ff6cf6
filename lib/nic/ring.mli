(** A descriptor ring: the producer/consumer queue between a DMA NIC
    and its driver (Figure 1 of the paper).

    The hardware produces completed descriptors at [head]; the driver
    consumes from [tail] and replenishes free slots. A descriptor is a
    buffer and the length of the bytes in it; neither side allocates.
    The DMA cost of moving the bytes is priced by the NIC model, not
    here. *)

type 'a t

val create : size:int -> 'a t
(** @raise Invalid_argument unless [size] is a positive power of two. *)

val occupancy : 'a t -> int
val is_empty : 'a t -> bool

val produce : 'a t -> 'a -> len:int -> bool
(** Hardware side: write a completed descriptor, a buffer holding [len]
    bytes. Returns [false] (drop) when the ring is full — the overload
    behaviour of a real NIC. *)

val head_len : 'a t -> int
(** The length of the oldest completed descriptor.
    @raise Invalid_argument when the ring is empty. *)

val consume : 'a t -> 'a
(** Driver side: retire the oldest completed descriptor and return its
    buffer. @raise Invalid_argument when the ring is empty. *)

val drops : 'a t -> int
(** Number of rejected [produce] calls (ring-full drops). *)

val produced : 'a t -> int

val on_produce : 'a t -> (unit -> unit) -> unit
(** Callback after each successful [produce] — lets poll-mode consumers
    account their idle window precisely instead of simulating every
    spin iteration. *)
