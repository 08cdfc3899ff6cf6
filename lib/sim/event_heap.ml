(* [seq] is the insertion number that breaks timestamp ties FIFO; the
   pair [(time, seq)] totally orders every entry the heap ever held.

   The heap proper is three parallel int arrays indexed by heap
   position: [time], [seq] and the [slot] that holds the entry's
   payload. [pos] maps a slot back to its heap position (-1 while the
   slot is free) and [free] is a stack of free slots. A handle packs
   [seq] above [slot_bits] bits of slot; since a seq is never reused, a
   handle whose slot now holds another entry does not match it. *)
type 'a handle = int

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable size : int;
  mutable payload : 'a array;
  mutable pos : int array;
  mutable free : int array;
  mutable nfree : int;
  mutable next_seq : int;
  mutable filler : 'a option;
      (* the first payload ever pushed: fills the slots the payload
         array does not use, so a vacated slot drops its payload *)
}

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_slots = 1 lsl slot_bits

(* Handles stay non-negative: [seq lsl slot_bits] fits below [max_int]. *)
let max_seq = 1 lsl (62 - slot_bits)
let no_handle = -1
let no_time = min_int

let create () =
  {
    time = [||];
    seq = [||];
    slot = [||];
    size = 0;
    payload = [||];
    pos = [||];
    free = [||];
    nfree = 0;
    next_seq = 0;
    filler = None;
  }

let is_empty t = Int.equal t.size 0
let live_count t = t.size

(* [seq] is annotated: left to inference it stays polymorphic, and
   [seq < seq'] becomes a call to the runtime's structural compare.
   These three helpers are inlined into the sift loops. *)
let[@hot_path] [@inline] before time (seq : int) time' seq' =
  time < time' || (Int.equal time time' && seq < seq')

let[@hot_path] [@inline] set t i time seq slot =
  t.time.(i) <- time;
  t.seq.(i) <- seq;
  t.slot.(i) <- slot;
  t.pos.(slot) <- i

(* Move the entry at heap position [src] to [dst]. *)
let[@hot_path] [@inline] move t ~src ~dst =
  set t dst t.time.(src) t.seq.(src) t.slot.(src)

(* Settle the entry [(time, seq, slot)] into the hole at [i], moving
   parents down (sift_up) or smaller children up (sift_down). *)
let[@hot_path] rec sift_up t i time seq slot =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before time seq t.time.(p) t.seq.(p) then begin
      move t ~src:p ~dst:i;
      sift_up t p time seq slot
    end
    else set t i time seq slot
  end
  else set t i time seq slot

let[@hot_path] rec sift_down t i time seq slot =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i time seq slot
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && before t.time.(r) t.seq.(r) t.time.(l) t.seq.(l) then r
      else l
    in
    if before t.time.(c) t.seq.(c) time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq slot
    end
    else set t i time seq slot
  end

(* Grow every array to twice its capacity, pushing the new slots onto
   the (empty) free stack lowest-first. Runs only when no slot is free. *)
let grow t v =
  let old = Array.length t.pos in
  if old >= max_slots then
    invalid_arg "Event_heap.push: more than 2^24 pending entries";
  let cap = if Int.equal old 0 then 16 else min max_slots (2 * old) in
  let filler =
    match t.filler with
    | Some f -> f
    | None ->
        t.filler <- Some v;
        v
  in
  let ints a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.time <- ints t.time 0;
  t.seq <- ints t.seq 0;
  t.slot <- ints t.slot 0;
  t.pos <- ints t.pos (-1);
  let payload = Array.make cap filler in
  Array.blit t.payload 0 payload 0 old;
  t.payload <- payload;
  t.free <- Array.make cap 0;
  for k = 0 to cap - old - 1 do
    t.free.(k) <- cap - 1 - k
  done;
  t.nfree <- cap - old

let[@hot_path] push t ~time v =
  if Int.equal time no_time then
    invalid_arg "Event_heap.push: time is Event_heap.no_time";
  if t.next_seq >= max_seq then
    invalid_arg "Event_heap.push: handle sequence exhausted";
  if Int.equal t.nfree 0 then grow t v;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.payload.(slot) <- v;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i time seq slot;
  (seq lsl slot_bits) lor slot

(* Delete the entry at heap position [i] and free its slot: the last
   entry fills the hole and settles up or down from there. *)
let[@hot_path] remove_at t i =
  let slot = t.slot.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = t.time.(last) and seq = t.seq.(last) and s = t.slot.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && before time seq t.time.(p) t.seq.(p) then
      sift_up t i time seq s
    else sift_down t i time seq s
  end;
  t.pos.(slot) <- -1;
  (match t.filler with Some f -> t.payload.(slot) <- f | None -> ());
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let[@hot_path] cancel t h =
  if h >= 0 then begin
    let slot = h land slot_mask in
    if slot < Array.length t.pos then begin
      let i = t.pos.(slot) in
      if i >= 0 && Int.equal t.seq.(i) (h lsr slot_bits) then remove_at t i
    end
  end

let[@hot_path] min_time t = if Int.equal t.size 0 then no_time else t.time.(0)

let[@hot_path] take t =
  if Int.equal t.size 0 then invalid_arg "Event_heap.take: no pending entry";
  let v = t.payload.(t.slot.(0)) in
  remove_at t 0;
  v

let pop t =
  let time = min_time t in
  if Int.equal time no_time then None else Some (time, take t)

let peek_time t =
  let time = min_time t in
  if Int.equal time no_time then None else Some time

(* Structural self-check for sanitizer builds: the pending prefix
   [0, size) satisfies the heap order, every pending entry's slot
   points back at its position, and the free stack holds exactly the
   other slots. O(capacity); never called on the hot path. *)
let validate t =
  let cap = Array.length t.pos in
  let fail fmt = Printf.ksprintf (fun s -> Error ("Event_heap: " ^ s)) fmt in
  if t.size > cap then fail "size %d exceeds capacity %d" t.size cap
  else if not (Int.equal (t.size + t.nfree) cap) then
    fail "%d pending + %d free slots <> capacity %d" t.size t.nfree cap
  else begin
    let err = ref None in
    let note e = if Option.is_none !err then err := Some e in
    for i = 1 to t.size - 1 do
      let p = (i - 1) / 2 in
      if before t.time.(i) t.seq.(i) t.time.(p) t.seq.(p) then
        note
          (Printf.sprintf
             "order violated at %d (t=%d seq=%d) vs parent %d (t=%d seq=%d)" i
             t.time.(i) t.seq.(i) p t.time.(p) t.seq.(p))
    done;
    for i = 0 to t.size - 1 do
      if not (Int.equal t.pos.(t.slot.(i)) i) then
        note (Printf.sprintf "slot %d does not point back at %d" t.slot.(i) i)
    done;
    for k = 0 to t.nfree - 1 do
      if t.pos.(t.free.(k)) >= 0 then
        note (Printf.sprintf "free slot %d is in the heap" t.free.(k))
    done;
    match !err with Some e -> fail "%s" e | None -> Ok ()
  end
