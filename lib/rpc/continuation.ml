(* The callbacks sit in one array and the free list threads through an
   [int array] beside it, so allocating, firing or cancelling a
   continuation allocates nothing once the arrays have grown. [next.(i)]
   is the free slot after [i] (-1 ends the list), or [busy] while slot
   [i] holds a live callback. A free slot holds [nop], so a fired
   callback is not retained. Ids recycle last-freed first. *)

let busy = -2

type 'a t = {
  mutable callbacks : ('a -> unit) array;
  mutable next : int array;
  mutable free_head : int;
  mutable live : int;
}

let nop _ = ()

(* Slots [from, n) chained in ascending order. *)
let chain next ~from =
  let n = Array.length next in
  for i = from to n - 1 do
    next.(i) <- (if i + 1 < n then i + 1 else -1)
  done

let create ?(initial_capacity = 16) () =
  if initial_capacity <= 0 then
    invalid_arg "Continuation.create: non-positive capacity";
  let next = Array.make initial_capacity 0 in
  chain next ~from:0;
  { callbacks = Array.make initial_capacity nop; next; free_head = 0; live = 0 }

let grow t =
  let n = Array.length t.next in
  t.callbacks <- Array.append t.callbacks (Array.make n nop);
  t.next <- Array.append t.next (Array.make n 0);
  chain t.next ~from:n;
  t.free_head <- n

let[@hot_path] alloc t f =
  if Int.equal t.free_head (-1) then grow t;
  let id = t.free_head in
  t.free_head <- t.next.(id);
  t.next.(id) <- busy;
  t.callbacks.(id) <- f;
  t.live <- t.live + 1;
  id

let[@hot_path] release t id =
  t.callbacks.(id) <- nop;
  t.next.(id) <- t.free_head;
  t.free_head <- id;
  t.live <- t.live - 1

let[@hot_path] is_busy t id =
  id >= 0 && id < Array.length t.next && Int.equal t.next.(id) busy

let[@hot_path] fire t id v =
  if is_busy t id then begin
    let f = t.callbacks.(id) in
    release t id;
    f v;
    true
  end
  else false

let[@hot_path] cancel t id =
  if is_busy t id then begin
    release t id;
    true
  end
  else false

let live t = t.live
