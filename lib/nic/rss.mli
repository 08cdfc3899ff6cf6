(** Receive-Side Scaling: Toeplitz flow hashing to spread flows across
    receive queues without OS involvement (§3 of the paper uses RSS as
    the canonical "offload that bypasses the OS entirely").

    This is a real Toeplitz implementation over the IPv4 5-tuple (minus
    protocol, as in Microsoft's RSS spec for UDP: src/dst address and
    src/dst port), with the standard 40-byte default key.

    The hash is table-driven: each key's 32-bit windows, one per bit
    offset, are computed once ({!create} for its key, and once for
    {!default_key}), so hashing is a fold of table entries over the
    input's set bits. {!hash_flow}, {!queue_for}, {!queue_of_frame},
    {!hash} and {!hash_prefix} allocate nothing. Input bits past the
    key's end contribute nothing, as in the bitwise definition. *)

type t

val create : ?key:string -> queues:int -> unit -> t
(** @raise Invalid_argument if [queues <= 0] or the key is shorter than
    40 bytes. *)

val default_key : string
(** The de-facto standard Microsoft RSS key. *)

val toeplitz_hash : key:string -> bytes -> int
(** Raw 32-bit Toeplitz hash of the input bytes under the key. A key
    other than {!default_key} has its table built on each call. *)

val hash : bytes -> int
(** [hash data] is [toeplitz_hash ~key:default_key data]: the pure,
    reusable flow hash.  The steering DSL's key-hash primitive
    ({!Steer}) is this function, through {!hash_prefix}, so
    steering-by-key and RSS provably agree on hash values (QCheck-tested). *)

val hash_prefix : bytes -> len:int -> int
(** [hash_prefix b ~len] is [hash (Bytes.sub b 0 len)], without the copy.
    @raise Invalid_argument if [len < 0] or [len > Bytes.length b]. *)

val hash_flow :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** 32-bit flow hash: the Toeplitz hash of src_ip, dst_ip, src_port
    and dst_port, big-endian, folded straight from the ints. *)

val queue_for :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** Indirection-table lookup: hash → queue index in [0, queues). *)

val queue_of_frame : t -> Net.Frame.t -> int
