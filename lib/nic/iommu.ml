let page_size = 4096

(* The running minimum of an LRU scan, kept outside the IOTLB's table
   so the scan allocates nothing. *)
type lru_scan = { mutable page : int; mutable oldest : int }

type t = {
  iotlb_entries : int;
  hit_cost : Sim.Units.duration;
  walk_cost : Sim.Units.duration;
  mapped : (int, unit) Hashtbl.t;  (* page number -> mapped *)
  iotlb : (int, int) Hashtbl.t;  (* page number -> last-use stamp *)
  scan : lru_scan;
  visit : int -> int -> unit;  (* [Hashtbl.iter] step of the scan, built once *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
}

let create ?(iotlb_entries = 64) ?(hit_cost = 20) ?(walk_cost = 250) () =
  if iotlb_entries <= 0 then invalid_arg "Iommu.create: iotlb_entries <= 0";
  if hit_cost < 0 || walk_cost < 0 then invalid_arg "Iommu.create: negative cost";
  let scan = { page = 0; oldest = max_int } in
  {
    iotlb_entries;
    hit_cost;
    walk_cost;
    mapped = Hashtbl.create 256;
    iotlb = Hashtbl.create 64;
    scan;
    visit =
      (fun p stamp ->
        if stamp < scan.oldest then begin
          scan.page <- p;
          scan.oldest <- stamp
        end);
    stamp = 0;
    hits = 0;
    misses = 0;
    faults = 0;
  }

let pages ~iova ~len =
  if len <= 0 then invalid_arg "Iommu: non-positive length";
  let first = iova / page_size and last = (iova + len - 1) / page_size in
  List.init (last - first + 1) (fun i -> first + i)

let map t ~iova ~len =
  List.iter (fun p -> Hashtbl.replace t.mapped p ()) (pages ~iova ~len)

let unmap t ~iova ~len =
  List.iter
    (fun p ->
      Hashtbl.remove t.mapped p;
      Hashtbl.remove t.iotlb p)
    (pages ~iova ~len)

(* Stamps are unique, so the least-recently-used page is the one with
   the smallest stamp, whatever order the table is walked in. *)
let[@hot_path] evict_lru t =
  if Hashtbl.length t.iotlb >= t.iotlb_entries then begin
    t.scan.oldest <- max_int;
    Hashtbl.iter t.visit t.iotlb;
    Hashtbl.remove t.iotlb t.scan.page
  end

(* The cost of one access, or [-1] on a fault (counted). *)
let[@hot_path] lookup t ~iova =
  let page = iova / page_size in
  if not (Hashtbl.mem t.mapped page) then begin
    t.faults <- t.faults + 1;
    -1
  end
  else begin
    t.stamp <- t.stamp + 1;
    if Hashtbl.mem t.iotlb page then begin
      t.hits <- t.hits + 1;
      Hashtbl.replace t.iotlb page t.stamp;
      t.hit_cost
    end
    else begin
      t.misses <- t.misses + 1;
      evict_lru t;
      Hashtbl.replace t.iotlb page t.stamp;
      t.walk_cost + t.hit_cost
    end
  end

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
