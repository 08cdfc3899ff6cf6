(** Reply continuations for nested RPCs (paper §6).

    When a handler issues a nested RPC, the reply must find its way back
    to the exact blocked computation. The paper argues fine-grained NIC
    interaction makes creating such a dedicated reply end-point cheap.
    This table is that mechanism: O(1) allocate/fire/cancel with id
    recycling, so the NIC can demultiplex replies by continuation id
    without any per-flow socket state. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t

val alloc : 'a t -> ('a -> unit) -> int
(** Register a callback; returns its continuation id. Ids are recycled
    after completion, last freed first, so the table stays dense. Once
    the table has grown to its peak, {!alloc}, {!fire} and {!cancel}
    allocate nothing. *)

val fire : 'a t -> int -> 'a -> bool
(** Deliver to a continuation and release its id. Returns [false] if
    the id is unknown or already fired (a late duplicate). *)

val cancel : 'a t -> int -> bool
(** Release without delivering (timeout path). Returns [false] if
    unknown. *)

val live : 'a t -> int
(** Number of outstanding continuations. *)
