type time = int
type duration = int

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let ns_of_float_us x = int_of_float (Float.round (x *. 1_000.))
let to_float_us d = float_of_int d /. 1_000.
let to_float_ms d = float_of_int d /. 1_000_000.
let to_float_s d = float_of_int d /. 1_000_000_000.

type freq = { ghz : float }

let cycles_of_ns f d = float_of_int d *. f.ghz

let ns_of_cycles f c =
  if f.ghz <= 0. then invalid_arg "Units.ns_of_cycles: non-positive freq";
  int_of_float (Float.round (c /. f.ghz))

let pp_duration ppf t =
  if t < 1_000 then Format.fprintf ppf "%dns" t
  else if t < 1_000_000 then Format.fprintf ppf "%.2fus" (to_float_us t)
  else if t < 1_000_000_000 then Format.fprintf ppf "%.2fms" (to_float_ms t)
  else Format.fprintf ppf "%.2fs" (to_float_s t)

let pp_rate ppf r =
  if Float.abs r >= 1e9 then Format.fprintf ppf "%.2fG/s" (r /. 1e9)
  else if Float.abs r >= 1e6 then Format.fprintf ppf "%.2fM/s" (r /. 1e6)
  else if Float.abs r >= 1e3 then Format.fprintf ppf "%.1fk/s" (r /. 1e3)
  else Format.fprintf ppf "%.1f/s" r
