(** Sampling distributions for workload generation. *)

type t =
  | Constant of float
  | Uniform of float * float  (** inclusive low, exclusive high *)
  | Exponential of float  (** mean *)
  | Lognormal of float * float  (** mu, sigma of the underlying normal *)
  | Pareto of float * float  (** scale (minimum), shape alpha *)
  | Bimodal of float * t * t  (** probability of first branch *)

val sample : t -> Sim.Rng.t -> float
val sample_int : t -> Sim.Rng.t -> int
(** [max 0 (round (sample ...))]. *)

val mean : t -> float
(** Analytic mean (Pareto with alpha ≤ 1 returns [infinity]). *)

val validate : t -> (unit, string) result
(** Check parameter sanity (positive means, low < high, ...). *)

(** Zipf-distributed ranks in [[0, n)]: popularity skew for service
    selection. A run builds its table once and draws from it. *)
module Zipf : sig
  type t
  val create : n:int -> s:float -> t
  (** The inverse-CDF table over [n] ranks with exponent [s] (1.0 ≈
      classic web skew): O(n) to build.
      @raise Invalid_argument if [n <= 0] or [s < 0]. *)

  val draw : t -> Sim.Rng.t -> int
  (** One rank, by binary search over the table: O(log n). *)
end

val pp : Format.formatter -> t -> unit
