(** IPv4 addresses. *)

type t
(** Immutable; structural equality and comparison are meaningful. *)

val of_int : int -> t
(** From a 32-bit value. @raise Invalid_argument if out of range. *)

val to_int : t -> int

val of_string : string -> t
(** Parse dotted quad ["10.0.0.1"]. @raise Invalid_argument on syntax. *)

val to_string : t -> string

val in_subnet : t -> network:t -> prefix_len:int -> bool
(** Whether the address falls inside [network/prefix_len]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
