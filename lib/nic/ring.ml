(* A descriptor is a buffer and the length of the bytes in it, kept in
   two parallel arrays, so produce and consume allocate nothing. The
   buffer array is created lazily at the first [produce] (using that
   first buffer as the filler); a consumed slot keeps its old buffer
   until the ring wraps, which retains at most [size] recent buffers —
   bounded, and for pooled buffers the backing storage is owned by the
   pool anyway. *)
type 'a t = {
  mutable slots : 'a array;  (* [||] until first produce *)
  lens : int array;
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
    lens = Array.make size 0;
    capacity = size;
    mask = size - 1;
    head = 0;
    tail = 0;
    drops = 0;
    produced = 0;
    notify = None;
  }

let occupancy t = t.head - t.tail
let[@hot_path] is_empty t = Int.equal t.head t.tail
let is_full t = Int.equal (occupancy t) t.capacity

let[@hot_path] produce t v ~len =
  if is_full t then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    if Array.length t.slots = 0 then t.slots <- Array.make t.capacity v;
    let i = t.head land t.mask in
    t.slots.(i) <- v;
    t.lens.(i) <- len;
    t.head <- t.head + 1;
    t.produced <- t.produced + 1;
    (match t.notify with Some f -> f () | None -> ());
    true
  end

let[@hot_path] head_len t =
  if is_empty t then invalid_arg "Ring.head_len: empty ring";
  t.lens.(t.tail land t.mask)

let[@hot_path] consume t =
  if is_empty t then invalid_arg "Ring.consume: empty ring";
  let v = t.slots.(t.tail land t.mask) in
  t.tail <- t.tail + 1;
  v

let drops t = t.drops
let produced t = t.produced
let on_produce t f = t.notify <- Some f
