(** 48-bit Ethernet MAC addresses. *)

type t
(** Immutable; structural equality and comparison are meaningful. *)

val of_int : int -> t
(** From a 48-bit value. @raise Invalid_argument if out of range. *)

val to_int : t -> int

val of_int64 : int64 -> t
(** Low 48 bits are used; high bits must be zero.
    @raise Invalid_argument otherwise. *)

val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"]. @raise Invalid_argument on syntax. *)

val to_string : t -> string
val broadcast : t
val is_broadcast : t -> bool

val is_multicast : t -> bool
(** True when the group bit (LSB of the first octet) is set. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
