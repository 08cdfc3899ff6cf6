(** Log-bucketed latency histogram (HDR-style).

    Values are non-negative integers (nanoseconds in practice). Buckets
    grow geometrically: each power-of-two range is split into a fixed
    number of linear sub-buckets, giving a bounded relative quantile
    error (≤ 1/sub_buckets) at any magnitude with O(1) recording. *)

type t

val create : unit -> t
(** An empty histogram with 32 sub-buckets per octave (~3% worst-case
    relative error). *)

val record : t -> int -> unit
(** Record one value. Negative values raise [Invalid_argument]. *)

val record_n : t -> int -> n:int -> unit
(** Record the same value [n] times. *)

val count : t -> int
val min_value : t -> int
(** @raise Invalid_argument on an empty histogram. *)

val max_value : t -> int
(** @raise Invalid_argument on an empty histogram. *)

val mean : t -> float
(** Arithmetic mean of recorded values (0 on empty histogram). The sum
    behind it is an exact [int], so recording boxes no float; the mean
    is exact while the sum stays below 2{^ 53}. *)

val quantile : t -> float -> int
(** [quantile t q] with [q] in [0, 1]: an upper bound on the value at
    that rank, within the bucket resolution.
    @raise Invalid_argument on an empty histogram or out-of-range [q]. *)

val merge_into : src:t -> dst:t -> unit
(** Add all of [src]'s recordings into [dst]. *)

val clear : t -> unit

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: count, mean, p50, p90, p99, p99.9, max (values
    rendered as durations). *)
