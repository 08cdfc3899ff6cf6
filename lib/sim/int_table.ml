type 'a t = {
  mutable keys : int array;  (* [empty] where a slot is free *)
  mutable vals : 'a array;  (* [dummy] where a slot is free *)
  mutable mask : int;  (* slots - 1 *)
  mutable shift : int;  (* 63 - log2 slots: the hash's top bits index *)
  mutable count : int;
  dummy : 'a;
}

let empty = min_int

(* An odd constant, 2^64 / phi to 60 bits: multiplying by it spreads
   sequential ids over the top bits, which index the slots. *)
let golden = 0x9E3_779B_97F4_A7C1

let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1)
let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let create ~dummy n =
  let slots = pow2_at_least n 8 in
  {
    keys = Array.make slots empty;
    vals = Array.make slots dummy;
    mask = slots - 1;
    shift = 63 - log2 slots 0;
    count = 0;
    dummy;
  }

let[@hot_path] home t k = (k * golden) lsr t.shift

(* The slot holding [k], or -1. *)
let[@hot_path] rec probe t k i =
  let s = t.keys.(i) in
  if Int.equal s k then i
  else if Int.equal s empty then -1
  else probe t k ((i + 1) land t.mask)

let[@hot_path] index t k = if Int.equal k empty then -1 else probe t k (home t k)
let[@hot_path] length t = t.count
let[@hot_path] mem t k = index t k >= 0

let[@hot_path] find t k =
  let i = index t k in
  if i < 0 then raise_notrace Not_found else t.vals.(i)

(* The first free slot from [i] on, along a probe run. *)
let rec free_slot t i =
  if Int.equal t.keys.(i) empty then i else free_slot t ((i + 1) land t.mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let slots = 2 * Array.length old_keys in
  t.keys <- Array.make slots empty;
  t.vals <- Array.make slots t.dummy;
  t.mask <- slots - 1;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i k ->
      if not (Int.equal k empty) then begin
        let j = free_slot t (home t k) in
        t.keys.(j) <- k;
        t.vals.(j) <- old_vals.(i)
      end)
    old_keys

let[@hot_path] replace t k v =
  if Int.equal k empty then invalid_arg "Int_table.replace: min_int";
  let i = index t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let j = free_slot t (home t k) in
    t.keys.(j) <- k;
    t.vals.(j) <- v;
    t.count <- t.count + 1
  end

(* Fill the hole at [hole] from the rest of its probe run: an entry at
   [j] moves back into the hole unless its home lies cyclically in
   (hole, j], where the move would put it before its home. *)
let[@hot_path] rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let k = t.keys.(j) in
  if Int.equal k empty then begin
    t.keys.(hole) <- empty;
    t.vals.(hole) <- t.dummy
  end
  else begin
    let h = home t k in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t hole j
    else begin
      t.keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      close_hole t j j
    end
  end

let[@hot_path] remove t k =
  let i = index t k in
  if i >= 0 then begin
    close_hole t i i;
    t.count <- t.count - 1
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun i k -> if not (Int.equal k empty) then acc := f k t.vals.(i) !acc)
    t.keys;
  !acc
