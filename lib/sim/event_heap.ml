(* [seq] is the insertion number that breaks timestamp ties FIFO; the
   pair [(time, seq)] totally orders every entry the heap ever held. *)
type 'a entry = {
  time : Units.time;
  seq : int;
  payload : 'a;
  mutable cancelled : bool;
}

type 'a handle = 'a entry

(* Entries are stored unboxed in [arr.(0 .. size-1)] — no [option]
   wrapper, no separate handle record: the entry itself is the
   cancellation handle (one allocation per push instead of three).
   Slots at [size] and beyond hold [sentinel], a permanently-cancelled
   dummy entry created from the first push, so vacated slots do not
   retain popped payloads. *)
type 'a t = {
  mutable arr : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
  mutable sentinel : 'a entry option;
}

let create () =
  { arr = [||]; size = 0; next_seq = 0; live = 0; sentinel = None }

let is_empty t = t.live = 0
let live_count t = t.live

let[@hot_path] entry_lt a b = a.time < b.time || (Int.equal a.time b.time && a.seq < b.seq)

let[@hot_path] swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let[@hot_path] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt t.arr.(i) t.arr.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let[@hot_path] rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && entry_lt t.arr.(l) t.arr.(!smallest) then smallest := l;
  if r < t.size && entry_lt t.arr.(r) t.arr.(!smallest) then smallest := r;
  if not (Int.equal !smallest i) then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let no_time = min_int

let[@hot_path] push t ~time payload =
  if Int.equal time no_time then
    invalid_arg "Event_heap.push: time is Event_heap.no_time";
  let e = ({ time; seq = t.next_seq; payload; cancelled = false } [@alloc_ok]) in
  t.next_seq <- t.next_seq + 1;
  if Int.equal t.size (Array.length t.arr) then begin
    let s =
      match t.sentinel with
      | Some s -> s
      | None ->
          let s = ({ time = 0; seq = -1; payload; cancelled = true } [@alloc_ok]) in
          t.sentinel <- (Some s [@alloc_ok]);
          s
    in
    let cap = max 64 (2 * Array.length t.arr) in
    let arr = Array.make cap s in
    Array.blit t.arr 0 arr 0 t.size;
    t.arr <- arr
  end;
  t.arr.(t.size) <- e;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t (t.size - 1);
  e

(* In-place filter of cancelled entries followed by Floyd heapify:
   O(size), amortised free because it runs only when cancelled entries
   are the majority and halves [size] at least. *)
let compact t =
  let old_size = t.size in
  let n = ref 0 in
  for i = 0 to old_size - 1 do
    let e = t.arr.(i) in
    if not e.cancelled then begin
      t.arr.(!n) <- e;
      incr n
    end
  done;
  (match t.sentinel with
  | Some s -> Array.fill t.arr !n (old_size - !n) s
  | None -> ());
  t.size <- !n;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let[@hot_path] cancel t h =
  if not h.cancelled then begin
    h.cancelled <- true;
    t.live <- t.live - 1;
    if t.size >= 64 && 2 * (t.size - t.live) > t.size then compact t
  end

let[@hot_path] pop_root t =
  let e = t.arr.(0) in
  t.size <- t.size - 1;
  t.arr.(0) <- t.arr.(t.size);
  (match t.sentinel with
  | Some s -> t.arr.(t.size) <- s
  | None -> ());
  if t.size > 0 then sift_down t 0;
  e

(* Cancelled entries are discarded as they surface at the root; only
   a live take touches [live]. A taken entry is marked cancelled so a
   later [cancel] on its handle is a genuine no-op. *)
let[@hot_path] rec min_time t =
  if t.size = 0 then no_time
  else if t.arr.(0).cancelled then begin
    ignore (pop_root t);
    min_time t
  end
  else t.arr.(0).time

let[@hot_path] rec take t =
  if t.size = 0 then invalid_arg "Event_heap.take: no live entry";
  let e = pop_root t in
  if e.cancelled then take t
  else begin
    e.cancelled <- true;
    t.live <- t.live - 1;
    e.payload
  end

let pop t =
  let time = min_time t in
  if Int.equal time no_time then None else Some (time, take t)

let peek_time t =
  let time = min_time t in
  if Int.equal time no_time then None else Some time

(* Structural self-check for sanitizer builds: the array prefix
   [0, size) must satisfy the heap order (parent not later than either
   child) and the cancelled-entry bookkeeping must agree with [live].
   O(size); never called on the hot path. *)
let validate t =
  if t.size > Array.length t.arr then
    Error
      (Printf.sprintf "Event_heap: size %d exceeds capacity %d" t.size
         (Array.length t.arr))
  else begin
    let err = ref None in
    for i = 1 to t.size - 1 do
      if Option.is_none !err then begin
        let parent = (i - 1) / 2 in
        if entry_lt t.arr.(i) t.arr.(parent) then
          err :=
            Some
              (Printf.sprintf
                 "Event_heap: order violated at slot %d (t=%d seq=%d) vs \
                  parent %d (t=%d seq=%d)"
                 i t.arr.(i).time t.arr.(i).seq parent t.arr.(parent).time
                 t.arr.(parent).seq)
      end
    done;
    match !err with
    | Some e -> Error e
    | None ->
        let live = ref 0 in
        for i = 0 to t.size - 1 do
          if not t.arr.(i).cancelled then incr live
        done;
        if not (Int.equal !live t.live) then
          Error
            (Printf.sprintf
               "Event_heap: live count drifted (%d stored, %d counted)"
               t.live !live)
        else Ok ()
  end
