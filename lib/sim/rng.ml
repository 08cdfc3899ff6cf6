(* The splitmix64 state lives in 8 bytes rather than a [mutable int64]
   field: storing to an [int64] field boxes, so every draw allocated.
   The state is read and written through the compiler's unboxed 64-bit
   primitives, and the step and mixer are inlined into each draw, so a
   draw that returns an [int] or a [bool] allocates nothing. An [int64]
   or [float] result crossing a module boundary is boxed all the same
   (dev builds are [-opaque]: nothing is inlined across modules), which
   is why [bits53] exists. *)
type t = bytes

external get_state : bytes -> int -> int64 = "%caml_bytes_get64"
external set_state : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* The state step: advance by the golden gamma and mix. *)
let[@inline][@hot_path] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let bits64 t = next t

let split t = of_state (next t)

let[@hot_path] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float t =
  (* 53 uniform bits into [0, 1). *)
  float_of_int (bits53 t) *. 0x1.0p-53

let[@hot_path] int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit int; modulo bias is
     negligible for bounds far below 2^62, which all simulator uses
     are. *)
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let[@hot_path] bool t = Int.equal (Int64.to_int (next t) land 1) 1

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1. -. float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1. -. float t and u2 = float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
