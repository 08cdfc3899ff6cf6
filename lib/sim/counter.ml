type t = { mutable v : int }
type group = { label : string; tbl : (string, t) Hashtbl.t }

let group label = { label; tbl = Hashtbl.create 16 }

(* [Hashtbl.find] rather than [find_opt]: a lookup of an existing
   counter, the per-event case, allocates no option. *)
let counter g name =
  match Hashtbl.find g.tbl name with
  | c -> c
  | exception Not_found ->
      let c = { v = 0 } in
      Hashtbl.add g.tbl name c;
      c

let incr c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let value c = c.v
let reset_group g = Hashtbl.iter (fun _ c -> c.v <- 0) g.tbl

let to_list g =
  Hashtbl.fold (fun k c acc -> (k, c.v) :: acc) g.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf g =
  Format.fprintf ppf "%s:" g.label;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "@\n  %s: %d" k v)
    (to_list g)
