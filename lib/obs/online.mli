(** Constant-memory streaming statistics (Welford).

    Five words of state per stream — count, running mean, running
    second moment, min, max — updated in O(1) per sample, so an
    hours-long soak over millions of samples observes latency without
    growing. Pairs with {!Sim.Histogram} (constant-memory quantiles);
    this module is the cheaper exact-moments half. *)

type t

val create : unit -> t
val record : t -> int -> unit

val count : t -> int
val mean : t -> float

val variance : t -> float
(** Unbiased sample variance; [0.] below two samples. *)

val stddev : t -> float

val min_value : t -> int
(** @raise Invalid_argument on an empty stream. *)

val max_value : t -> int
(** @raise Invalid_argument on an empty stream. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: count, mean, stddev, min, max. *)
