type counter = { mutable cv : int }
type gauge = { mutable gv : int }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Derived of (unit -> int)
  | Hist of Sim.Histogram.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Derived _ -> "derived gauge"
  | Hist _ -> "histogram"

let register t name make match_existing =
  match Hashtbl.find_opt t.tbl name with
  | None ->
      let m = make () in
      Hashtbl.add t.tbl name m;
      m
  | Some m ->
      if not (match_existing m) then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered as a %s" name
             (kind_name m));
      m

let counter t name =
  match
    register t name
      (fun () -> Counter { cv = 0 })
      (function Counter _ -> true | _ -> false)
  with
  | Counter c -> c
  | _ -> assert false

let gauge t name =
  match
    register t name
      (fun () -> Gauge { gv = 0 })
      (function Gauge _ -> true | _ -> false)
  with
  | Gauge g -> g
  | _ -> assert false

let derive t name fn =
  ignore
    (register t name
       (fun () -> Derived fn)
       (function Derived _ -> true | _ -> false))

let histogram t name =
  match
    register t name
      (fun () -> Hist (Sim.Histogram.create ()))
      (function Hist _ -> true | _ -> false)
  with
  | Hist h -> h
  | _ -> assert false

let incr c = c.cv <- c.cv + 1
let add c n = c.cv <- c.cv + n
let value c = c.cv
let set g v = g.gv <- v
let gauge_value g = g.gv

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c.cv
  | Some _ | None -> 0

let scalar = function
  | Counter c -> Some c.cv
  | Gauge g -> Some g.gv
  | Derived fn -> Some (fn ())
  | Hist _ -> None

let to_list ?(keep_zero = false) t =
  Hashtbl.fold
    (fun name m acc ->
      match scalar m with
      | Some v when v <> 0 || keep_zero -> (name, v) :: acc
      | Some _ | None -> acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Deterministic aggregation: fold [src] into [dst] in sorted-name
   order, so merging per-shard registries in a fixed shard order
   yields one rack-wide snapshot that is a pure function of the
   simulation. Derived gauges are sampled at merge time and land as
   plain gauges — a merged snapshot has no live callbacks into the
   source's state. *)
let merge_into ~src ~dst =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) src.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, m) ->
         match m with
         | Counter c -> add (counter dst name) c.cv
         | Gauge g ->
             let d = gauge dst name in
             d.gv <- d.gv + g.gv
         | Derived fn ->
             let d = gauge dst name in
             d.gv <- d.gv + fn ()
         | Hist h ->
             Sim.Histogram.merge_into ~src:h ~dst:(histogram dst name))

let to_json t =
  let fields =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, m) ->
           let v =
             match m with
             | Counter c -> Json.Int c.cv
             | Gauge g -> Json.Int g.gv
             | Derived fn -> Json.Int (fn ())
             | Hist h ->
                 let count = Sim.Histogram.count h in
                 let q p =
                   if count = 0 then 0 else Sim.Histogram.quantile h p
                 in
                 Json.Obj
                   [
                     ("count", Json.Int count);
                     ("mean", Json.Float (Sim.Histogram.mean h));
                     ("p50", Json.Int (q 0.5));
                     ("p90", Json.Int (q 0.9));
                     ("p99", Json.Int (q 0.99));
                     ( "max",
                       Json.Int
                         (if count = 0 then 0 else Sim.Histogram.max_value h)
                     );
                   ]
           in
           (name, v))
  in
  Json.Obj fields

