type 'a t = { mutable free : 'a array; mutable nfree : int }

let create () = { free = [||]; nfree = 0 }

let is_empty p = Int.equal p.nfree 0
let length p = p.nfree

let[@hot_path] take p =
  if Int.equal p.nfree 0 then invalid_arg "Slot_pool.take: empty";
  p.nfree <- p.nfree - 1;
  p.free.(p.nfree)

(* The array grows with the slot being released as its filler, so no
   empty value is needed. *)
let grow p s =
  let n = Array.length p.free in
  let a = Array.make (Int.max 8 (2 * n)) s in
  Array.blit p.free 0 a 0 n;
  p.free <- a

let[@hot_path] release p s =
  if Int.equal p.nfree (Array.length p.free) then grow p s;
  p.free.(p.nfree) <- s;
  p.nfree <- p.nfree + 1
