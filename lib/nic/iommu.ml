let page_size = 4096

type t = {
  iotlb_entries : int;
  hit_cost : Sim.Units.duration;
  walk_cost : Sim.Units.duration;
  mapped : (int, unit) Hashtbl.t;  (* page number -> mapped *)
  iotlb : (int, int) Hashtbl.t;  (* page number -> last-use stamp *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
}

let create ?(iotlb_entries = 64) ?(hit_cost = 20) ?(walk_cost = 250) () =
  if iotlb_entries <= 0 then invalid_arg "Iommu.create: iotlb_entries <= 0";
  {
    iotlb_entries;
    hit_cost;
    walk_cost;
    mapped = Hashtbl.create 256;
    iotlb = Hashtbl.create 64;
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

let evict_lru t =
  if Hashtbl.length t.iotlb >= t.iotlb_entries then begin
    let oldest =
      Hashtbl.fold
        (fun p stamp acc ->
          match acc with
          | Some (_, s) when s <= stamp -> acc
          | Some _ | None -> Some (p, stamp))
        t.iotlb None
    in
    match oldest with
    | Some (p, _) -> Hashtbl.remove t.iotlb p
    | None -> ()
  end

let translate_opt t ~iova =
  let page = iova / page_size in
  if not (Hashtbl.mem t.mapped page) then begin
    t.faults <- t.faults + 1;
    None
  end
  else begin
    t.stamp <- t.stamp + 1;
    if Hashtbl.mem t.iotlb page then begin
      t.hits <- t.hits + 1;
      Hashtbl.replace t.iotlb page t.stamp;
      Some t.hit_cost
    end
    else begin
      t.misses <- t.misses + 1;
      evict_lru t;
      Hashtbl.replace t.iotlb page t.stamp;
      Some (t.walk_cost + t.hit_cost)
    end
  end

let translate t ~iova =
  match translate_opt t ~iova with
  | Some cost -> cost
  | None ->
      invalid_arg (Printf.sprintf "Iommu.translate: DMA fault at 0x%x" iova)

let hits t = t.hits
let misses t = t.misses
let faults t = t.faults
