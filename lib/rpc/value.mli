(** Runtime representation of RPC arguments and results.

    Values are structural data (the union of what a protobuf-like IDL
    can express); {!Schema} describes their static shape and directs the
    wire encoding in {!Codec}. *)

type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Blob of bytes
  | List of t list
  | Tuple of t list

val equal : t -> t -> bool

val field_count : t -> int
(** Number of leaf fields, the unit of per-field deserialization cost:
    scalars count 1, containers count the sum of their elements (an
    empty container counts 1 for its length field). *)

val pp : Format.formatter -> t -> unit

(** Convenience constructors. *)

val int : int -> t
val str : string -> t
