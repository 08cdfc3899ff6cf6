(* Slots are stored unboxed: no ['a option] wrapper, so produce/consume
   allocate nothing beyond the caller-visible [Some] of [consume]. The
   backing array is created lazily at the first [produce] (using that
   first value as the filler); a consumed slot keeps its old value until
   the ring wraps, which retains at most [size] recent descriptors —
   bounded, and for pooled buffers the backing storage is owned by the
   pool anyway. *)
type 'a t = {
  mutable slots : 'a array;  (* [||] until first produce *)
  capacity : int;
  mask : int;
  mutable head : int;  (* next produce position *)
  mutable tail : int;  (* next consume position *)
  mutable drops : int;
  mutable produced : int;
  mutable notify : (unit -> unit) option;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size =
  if not (is_power_of_two size) then
    invalid_arg "Ring.create: size must be a positive power of two";
  {
    slots = [||];
    capacity = size;
    mask = size - 1;
    head = 0;
    tail = 0;
    drops = 0;
    produced = 0;
    notify = None;
  }

let occupancy t = t.head - t.tail
let is_empty t = Int.equal t.head t.tail
let is_full t = Int.equal (occupancy t) t.capacity

let produce t v =
  if is_full t then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    if Array.length t.slots = 0 then t.slots <- Array.make t.capacity v;
    t.slots.(t.head land t.mask) <- v;
    t.head <- t.head + 1;
    t.produced <- t.produced + 1;
    (match t.notify with Some f -> f () | None -> ());
    true
  end

let consume t =
  if is_empty t then None
  else begin
    let v = t.slots.(t.tail land t.mask) in
    t.tail <- t.tail + 1;
    Some v
  end

let peek t = if is_empty t then None else Some t.slots.(t.tail land t.mask)
let drops t = t.drops
let produced t = t.produced
let on_produce t f = t.notify <- Some f
