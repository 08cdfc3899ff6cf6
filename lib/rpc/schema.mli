(** Static shape of RPC messages; directs encoding and decoding.

    Because both ends share the schema, the wire format needs no tags:
    only strings, blobs, and lists carry explicit lengths. This mirrors
    the schema-directed accelerators the paper builds on (Optimus
    Prime, ProtoAcc): the NIC is given the schema in advance and can
    unmarshal in hardware. *)

type t =
  | Unit
  | Bool
  | Int
  | Float
  | Str
  | Blob
  | List of t
  | Tuple of t list

val conforms : Value.t -> t -> bool
(** Structural conformance of a value to the schema. *)

val default : t -> Value.t
(** A minimal value of the schema's shape (empty containers, zeros). *)

val arbitrary : t -> Sim.Rng.t -> size_hint:int -> Value.t
(** A pseudo-random conforming value whose variable-size parts total
    roughly [size_hint] bytes. Used by workload generation and
    property tests. *)

