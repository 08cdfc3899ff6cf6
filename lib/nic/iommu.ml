let page_size = 4096

(* The IOTLB is a fixed set of entries, numbered from 0. A cached page's
   entry sits on a doubly linked list in recency order, most recently
   used at [head], threaded through [prev] and [next]; [-1] ends a list.
   A free entry sits on a stack threaded through [next] from [free].
   [mapped] binds each mapped page to its entry, or to [-1] while it is
   not cached, so one probe tells a hit, a miss and a fault apart. *)
type t = {
  hit_cost : Sim.Units.duration;
  walk_cost : Sim.Units.duration;
  mapped : int Sim.Int_table.t;  (* mapped page -> its entry, or -1 *)
  page : int array;  (* entry -> the page it caches *)
  prev : int array;
  next : int array;
  mutable head : int;
  mutable tail : int;
  mutable free : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
}

let create ?(iotlb_entries = 64) ?(hit_cost = 20) ?(walk_cost = 250) () =
  if iotlb_entries <= 0 then invalid_arg "Iommu.create: iotlb_entries <= 0";
  if hit_cost < 0 || walk_cost < 0 then invalid_arg "Iommu.create: negative cost";
  {
    hit_cost;
    walk_cost;
    mapped = Sim.Int_table.create ~dummy:(-1) 512;
    page = Array.make iotlb_entries 0;
    prev = Array.make iotlb_entries (-1);
    next =
      Array.init iotlb_entries (fun e ->
          if e + 1 < iotlb_entries then e + 1 else -1);
    head = -1;
    tail = -1;
    free = 0;
    hits = 0;
    misses = 0;
    faults = 0;
  }

let iter_pages ~iova ~len f =
  if len <= 0 then invalid_arg "Iommu: non-positive length";
  for p = iova / page_size to (iova + len - 1) / page_size do
    f p
  done

let[@hot_path] unlink t e =
  let p = t.prev.(e) and n = t.next.(e) in
  if p < 0 then t.head <- n else t.next.(p) <- n;
  if n < 0 then t.tail <- p else t.prev.(n) <- p

let[@hot_path] push_head t e =
  t.prev.(e) <- -1;
  t.next.(e) <- t.head;
  if t.head < 0 then t.tail <- e else t.prev.(t.head) <- e;
  t.head <- e

let map t ~iova ~len =
  iter_pages ~iova ~len (fun p ->
      if not (Sim.Int_table.mem t.mapped p) then
        Sim.Int_table.replace t.mapped p (-1))

let unmap t ~iova ~len =
  iter_pages ~iova ~len (fun p ->
      match Sim.Int_table.find t.mapped p with
      | e ->
          Sim.Int_table.remove t.mapped p;
          if e >= 0 then begin
            unlink t e;
            t.next.(e) <- t.free;
            t.free <- e
          end
      | exception Not_found -> ())

(* A free entry, or else the least recently used one: the tail, whose
   page stays mapped but is no longer cached. *)
let[@hot_path] take_entry t =
  if t.free >= 0 then begin
    let e = t.free in
    t.free <- t.next.(e);
    e
  end
  else begin
    let e = t.tail in
    unlink t e;
    Sim.Int_table.replace t.mapped t.page.(e) (-1);
    e
  end

(* The cost of one access, or [-1] on a fault (counted). *)
let[@hot_path] lookup t ~iova =
  let page = iova / page_size in
  match Sim.Int_table.find t.mapped page with
  | exception Not_found ->
      t.faults <- t.faults + 1;
      -1
  | e when e >= 0 ->
      t.hits <- t.hits + 1;
      if not (Int.equal e t.head) then begin
        unlink t e;
        push_head t e
      end;
      t.hit_cost
  | _ ->
      t.misses <- t.misses + 1;
      let e = take_entry t in
      t.page.(e) <- page;
      Sim.Int_table.replace t.mapped page e;
      push_head t e;
      t.walk_cost + t.hit_cost

let translate_opt t ~iova =
  let cost = lookup t ~iova in
  if cost < 0 then None else Some cost

let[@hot_path] translate t ~iova =
  let cost = lookup t ~iova in
  if cost < 0 then
    invalid_arg (Printf.sprintf "Iommu.translate: DMA fault at 0x%x" iova);
  cost

let hits t = t.hits
let misses t = t.misses
let faults t = t.faults
