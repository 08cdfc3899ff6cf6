(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component takes its own [Rng.t] so that runs are
    reproducible and components can be re-seeded independently without
    perturbing each other's streams. *)

type t

val create : seed:int -> t
(** A fresh generator. Generators with distinct seeds produce
    independent-looking streams. *)

val split : t -> t
(** Derive a new generator from this one; both remain usable and their
    streams are decorrelated. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next {!bits64} output, in [\[0, 2^53)].
    Unlike {!bits64} and {!float}, whose results are boxed on their
    way out of this module, it allocates nothing. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [float_of_int (bits53 t) *. 0x1p-53]. *)

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)]. Allocates nothing.
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. Allocates nothing. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean.
    @raise Invalid_argument if [mean <= 0]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
