type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Lognormal of float * float
  | Pareto of float * float
  | Bimodal of float * t * t

let rec sample t rng =
  match t with
  | Constant c -> c
  | Uniform (lo, hi) -> lo +. (Sim.Rng.float rng *. (hi -. lo))
  | Exponential mean -> Sim.Rng.exponential rng ~mean
  | Lognormal (mu, sigma) -> exp (Sim.Rng.gaussian rng ~mu ~sigma)
  | Pareto (scale, alpha) ->
      let u = 1. -. Sim.Rng.float rng in
      scale /. (u ** (1. /. alpha))
  | Bimodal (p, a, b) ->
      if Sim.Rng.float rng < p then sample a rng else sample b rng

(* The exponential case, which every open-loop arrival draws, is
   [Rng.exponential] written out over [Rng.bits53]: the same draw, bit
   for bit, but no [float] crosses a module boundary, where it would be
   boxed. *)
let[@hot_path] sample_int t rng =
  match t with
  | Exponential mean ->
      if mean <= 0. then invalid_arg "Dist.sample_int: non-positive mean";
      let u = 1. -. (float_of_int (Sim.Rng.bits53 rng) *. 0x1.0p-53) in
      Int.max 0 (int_of_float (Float.round (-.mean *. log u)))
  | Constant _ | Uniform _ | Lognormal _ | Pareto _ | Bimodal _ ->
      Int.max 0 (int_of_float (Float.round (sample t rng)))

let rec mean = function
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Exponential m -> m
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. sigma /. 2.))
  | Pareto (scale, alpha) ->
      if alpha <= 1. then infinity else alpha *. scale /. (alpha -. 1.)
  | Bimodal (p, a, b) -> (p *. mean a) +. ((1. -. p) *. mean b)

let rec validate = function
  | Constant c ->
      if c < 0. then Error "Constant: negative value" else Ok ()
  | Uniform (lo, hi) ->
      if lo >= hi then Error "Uniform: low >= high" else Ok ()
  | Exponential m ->
      if m <= 0. then Error "Exponential: non-positive mean" else Ok ()
  | Lognormal (_, sigma) ->
      if sigma < 0. then Error "Lognormal: negative sigma" else Ok ()
  | Pareto (scale, alpha) ->
      if scale <= 0. || alpha <= 0. then Error "Pareto: non-positive params"
      else Ok ()
  | Bimodal (p, a, b) ->
      if p < 0. || p > 1. then Error "Bimodal: probability out of [0,1]"
      else ( match validate a with Error _ as e -> e | Ok () -> validate b)

module Zipf = struct
  (* Cumulative weights, built once per table. *)
  type t = float array

  let create ~n ~s =
    if n <= 0 then invalid_arg "Dist.Zipf.create: n <= 0";
    if s < 0. then invalid_arg "Dist.Zipf.create: negative exponent";
    let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w

  (* [Rng.float] written out over [Rng.bits53], as in [sample_int], and
     a binary search for the first index with cdf >= u in a loop: no
     float is boxed and no closure built. *)
  let[@hot_path] draw cdf rng =
    let u = float_of_int (Sim.Rng.bits53 rng) *. 0x1.0p-53 in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end

let rec pp ppf = function
  | Constant c -> Format.fprintf ppf "const(%g)" c
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform(%g,%g)" lo hi
  | Exponential m -> Format.fprintf ppf "exp(mean=%g)" m
  | Lognormal (mu, sigma) -> Format.fprintf ppf "lognorm(%g,%g)" mu sigma
  | Pareto (scale, alpha) -> Format.fprintf ppf "pareto(%g,%g)" scale alpha
  | Bimodal (p, a, b) ->
      Format.fprintf ppf "bimodal(%g: %a | %a)" p pp a pp b
