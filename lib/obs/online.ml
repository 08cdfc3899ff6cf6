(* Constant-memory streaming moments (Welford's algorithm). The chaos
   soak records millions of latencies; keeping them would defeat the
   constant-memory contract, so this carries exactly five words of
   state per stream. *)

type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; min_v = max_int; max_v = min_int }

let record t x =
  t.count <- t.count + 1;
  let xf = float_of_int x in
  let d = xf -. t.mean in
  t.mean <- t.mean +. (d /. float_of_int t.count);
  t.m2 <- t.m2 +. (d *. (xf -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.count
let mean t = if t.count = 0 then 0. else t.mean

let variance t =
  if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let min_value t =
  if t.count = 0 then invalid_arg "Online.min_value: empty stream";
  t.min_v

let max_value t =
  if t.count = 0 then invalid_arg "Online.max_value: empty stream";
  t.max_v

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.1f sd=%.1f min=%d max=%d" t.count
      (mean t) (stddev t) t.min_v t.max_v
