(** Receive-Side Scaling: Toeplitz flow hashing to spread flows across
    receive queues without OS involvement (§3 of the paper uses RSS as
    the canonical "offload that bypasses the OS entirely").

    This is a real Toeplitz implementation over the IPv4 5-tuple (minus
    protocol, as in Microsoft's RSS spec for UDP: src/dst address and
    src/dst port), with the standard 40-byte default key.

    The hash is table-driven. Each {!t} holds one table for its key,
    32 entries per key byte, built by {!create} (1280 words for
    {!default_key}): entry [16 * n + v] is the XOR of the
    key's 32-bit windows for the set bits of value [v] at nibble
    position [n] of the input. Hashing is one lookup per input nibble,
    24 for a flow. {!hash_flow}, {!queue_for}, {!queue_of_frame},
    {!hash} and {!hash_prefix} allocate nothing. Input past the key's
    end contributes nothing, as in the bitwise definition. *)

type t

val create : ?key:string -> queues:int -> unit -> t
(** @raise Invalid_argument if [queues <= 0] or the key is shorter than
    40 bytes. *)

val default_key : string
(** The de-facto standard Microsoft RSS key. *)

val toeplitz_hash : key:string -> bytes -> int
(** Raw 32-bit Toeplitz hash of the input bytes under the key. The
    key's table is built on each call. *)

val hash : t -> bytes -> int
(** [hash t data] is [toeplitz_hash ~key data] under [t]'s key.  The
    steering DSL's key-hash primitive ({!Steer}) is this function,
    through {!hash_prefix} on the NIC's own [t], so steering-by-key and
    RSS provably agree on hash values (QCheck-tested). *)

val hash_prefix : t -> bytes -> len:int -> int
(** [hash_prefix t b ~len] is [hash t (Bytes.sub b 0 len)], uncopied.
    @raise Invalid_argument if [len < 0] or [len > Bytes.length b]. *)

val hash_flow :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** 32-bit flow hash: the Toeplitz hash of src_ip, dst_ip, src_port
    and dst_port, big-endian: 24 table lookups, one per nibble, read
    straight from the ints. *)

val queue_for :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** Indirection-table lookup: hash → queue index in [0, queues). *)

val queue_of_frame : t -> Net.Frame.t -> int
