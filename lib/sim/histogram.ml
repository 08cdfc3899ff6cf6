(* 32 linear sub-buckets per octave. *)
let sub_bucket_bits = 5
let sub_bucket_count = 1 lsl sub_bucket_bits

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;  (* exact; [mean] converts it once *)
  mutable min_v : int;
  mutable max_v : int;
}

(* Octave 0 holds [sub_bucket_count] linear buckets; each further
   octave adds [sub_bucket_count / 2]. 62 octaves cover any [int]. *)
let num_indices = sub_bucket_count + (62 * (sub_bucket_count / 2))

let create () =
  {
    counts = Array.make num_indices 0;
    total = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let bit_length v =
  (* Position of the highest set bit, i.e. floor(log2 v) + 1; 0 for 0. *)
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < sub_bucket_count then v
  else
    let octave = bit_length v - sub_bucket_bits in
    let sub = v lsr octave in
    (octave * (sub_bucket_count / 2)) + sub

let upper_bound_of_index i =
  if i < sub_bucket_count then i
  else
    let half = sub_bucket_count / 2 in
    let octave = (i / half) - 1 in
    let sub = i - (octave * half) in
    ((sub + 1) lsl octave) - 1

let record_n t v ~n =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  if n < 0 then invalid_arg "Histogram.record_n: negative count";
  if n > 0 then begin
    t.counts.(index_of v) <- t.counts.(index_of v) + n;
    t.total <- t.total + n;
    t.sum <- t.sum + (v * n);
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v ~n:1
let count t = t.total

let min_value t =
  if t.total = 0 then invalid_arg "Histogram.min_value: empty";
  t.min_v

let max_value t =
  if t.total = 0 then invalid_arg "Histogram.max_value: empty";
  t.max_v

let mean t =
  if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total

let quantile t q =
  if t.total = 0 then invalid_arg "Histogram.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Histogram.quantile: q out of [0,1]";
  let rank =
    max 1 (int_of_float (Float.round (q *. float_of_int t.total)))
  in
  let rec go i acc =
    if i >= Array.length t.counts then t.max_v
    else
      let acc = acc + t.counts.(i) in
      if acc >= rank then min (upper_bound_of_index i) t.max_v
      else go (i + 1) acc
  in
  go 0 0

let merge_into ~src ~dst =
  Array.iteri
    (fun i c -> if c > 0 then dst.counts.(i) <- dst.counts.(i) + c)
    src.counts;
  dst.total <- dst.total + src.total;
  dst.sum <- dst.sum + src.sum;
  if src.total > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let pp_summary ppf t =
  if t.total = 0 then Format.fprintf ppf "(empty)"
  else
    Format.fprintf ppf
      "n=%d mean=%a p50=%a p90=%a p99=%a p99.9=%a max=%a" t.total
      Units.pp_duration
      (int_of_float (mean t))
      Units.pp_duration (quantile t 0.5) Units.pp_duration (quantile t 0.9)
      Units.pp_duration (quantile t 0.99) Units.pp_duration
      (quantile t 0.999) Units.pp_duration (max_value t)
