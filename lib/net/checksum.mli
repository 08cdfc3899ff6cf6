(** The Internet checksum (RFC 1071) used by IPv4 and UDP.

    The checksum is the one's-complement of the one's-complement sum of
    the data viewed as big-endian 16-bit words, with an odd trailing
    byte padded with zero. *)

val ones_complement_sum : init:int -> bytes -> pos:int -> len:int -> int
(** Folded 16-bit one's-complement sum of a byte range, seeded with
    [init]. Composable: feed the result of one range as the [init] of
    the next (pseudo-header then payload). Reads 32 bytes per iteration
    as four unchecked native-endian 64-bit loads, each split into its
    32-bit halves (RFC 1071's byte-order invariance), and allocates
    nothing; a tail of fewer than 32 bytes uses the checked byte loop.
    Exact for ranges shorter than 4 GiB. [init] is required rather than
    optional, so a call allocates no [Some]. *)

val ones_complement_sum_bytewise :
  init:int -> bytes -> pos:int -> len:int -> int
(** The straightforward 2-bytes-per-iteration sum. Same result as
    {!ones_complement_sum}; kept as the reference implementation the
    word-wide path is property-tested against. *)

val finish : int -> int
(** Final complement step; maps a folded sum to the wire checksum.
    A resulting 0 is kept as 0 (IPv4 semantics); UDP's 0→0xffff rule is
    applied by the UDP encoder. *)

val compute : bytes -> pos:int -> len:int -> int
(** [finish (ones_complement_sum ~init:0 b ~pos ~len)]. *)

val verify : bytes -> pos:int -> len:int -> bool
(** True when the range (with its embedded checksum field) sums to the
    all-ones pattern, i.e. the checksum is valid. *)
