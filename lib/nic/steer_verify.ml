type env = {
  queues : int;
  workers : int;
  payload_prefix : int;
  cost_budget : int;
}

let default_env = { queues = 4; workers = 4; payload_prefix = 32; cost_budget = 500 }

type verified = { prog : Steer.t; cost : int }

let program v = v.prog
let cost v = v.cost

(* ------------------------------------------------------------------ *)
(* Boxes: a guard is a conjunction of per-field intervals.  All the
   abstract interpretation below works on (field, lo, hi) lists with at
   most one entry per field, intervals clipped to the field domain. *)

let field_equal a b =
  match (a, b) with
  | Steer.Src_ip, Steer.Src_ip
  | Dst_ip, Dst_ip
  | Src_port, Src_port
  | Dst_port, Dst_port
  | Length, Length ->
      true
  | Payload i, Payload j -> Int.equal i j
  | _ -> false

(* Intersect the atoms of a guard into a box.  [None] = the guard is
   unsatisfiable (empty intersection on some field). *)
let guard_box (g : Steer.guard) =
  let rec add box (a : Steer.atom) =
    match box with
    | [] -> Some [ (a.field, a.lo, a.hi) ]
    | (f, lo, hi) :: rest when field_equal f a.field ->
        let lo' = max lo a.lo and hi' = min hi a.hi in
        if lo' > hi' then None
        else Some ((f, lo', hi') :: rest)
    | e :: rest -> Option.map (fun b -> e :: b) (add rest a)
  in
  List.fold_left
    (fun acc a -> match acc with None -> None | Some b -> add b a)
    (Some []) g

let box_interval box field =
  match List.find_opt (fun (f, _, _) -> field_equal f field) box with
  | Some (_, lo, hi) -> (lo, hi)
  | None -> Steer.field_domain field

let fields_of_boxes boxes =
  List.fold_left
    (fun acc box ->
      List.fold_left
        (fun acc (f, _, _) ->
          if List.exists (fun g -> field_equal f g) acc then acc else f :: acc)
        acc box)
    [] boxes
  |> List.rev

let pp_witness fmt assignment =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (f, v) -> Format.fprintf fmt "%a=%d" Steer.pp_field f v)
    fmt assignment

(* Pairwise disjointness: two boxes overlap iff the per-field interval
   intersection is non-empty on every field either mentions.  The
   witness packet takes the midpoint of each intersection. *)
let overlap_witness box_a box_b =
  let fields = fields_of_boxes [ box_a; box_b ] in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | f :: rest ->
        let alo, ahi = box_interval box_a f and blo, bhi = box_interval box_b f in
        let lo = max alo blo and hi = min ahi bhi in
        if lo > hi then None else go ((f, lo + ((hi - lo) / 2)) :: acc) rest
  in
  go [] fields

(* Coverage: recursively split the constrained field space along rule
   boundaries until every cell is covered by some rule (its box
   contains the whole cell) or a hole is found. *)
type cover = Covered | Hole of (Steer.field * int) list

let box_covers space box =
  List.for_all
    (fun (f, slo, shi) ->
      let lo, hi = box_interval box f in
      lo <= slo && shi <= hi)
    space

let box_intersects space box =
  List.for_all
    (fun (f, slo, shi) ->
      let lo, hi = box_interval box f in
      max lo slo <= min hi shi)
    space

let rec cover space boxes =
  if List.exists (fun b -> box_covers space b) boxes then Covered
  else
    let intersecting = List.filter (fun b -> box_intersects space b) boxes in
    match intersecting with
    | [] -> Hole (List.map (fun (f, lo, _) -> (f, lo)) space)
    | _ ->
        (* Some rule intersects but none covers: find the first field
           where an intersecting rule's interval cuts the space
           properly, split there, recurse on each piece. *)
        let cut =
          List.find_map
            (fun box ->
              List.find_map
                (fun (f, slo, shi) ->
                  let lo, hi = box_interval box f in
                  if lo > slo && lo <= shi then Some (f, lo - 1)
                  else if hi >= slo && hi < shi then Some (f, hi)
                  else None)
                space)
            intersecting
        in
        (match cut with
        | None ->
            (* Every intersecting box spans every space interval it
               shares — impossible unless it covers, kept as a hole for
               soundness. *)
            Hole (List.map (fun (f, lo, _) -> (f, lo)) space)
        | Some (cf, at) ->
            (* Rebuild the two sub-spaces sharing all other fields. *)
            let lowers =
              List.map
                (fun ((f, slo, _shi) as e) ->
                  if field_equal f cf then (f, slo, at) else e)
                space
            and uppers =
              List.map
                (fun ((f, _slo, shi) as e) ->
                  if field_equal f cf then (f, at + 1, shi) else e)
                space
            in
            (match cover lowers boxes with
            | Covered -> cover uppers boxes
            | hole -> hole))

(* ------------------------------------------------------------------ *)
(* Static cost model (ns). *)

let field_read_cost = function Steer.Payload _ -> 4 | _ -> 2
let atom_cost (a : Steer.atom) = field_read_cost a.field + 1

let guard_cost (g : Steer.guard) =
  List.fold_left (fun acc a -> acc + atom_cost a) 0 g

let rec target_cost ~on_dead = function
  | Steer.Queue _ -> 1
  | Steer.Rss -> 30
  | Steer.Hash_lane { key; _ } ->
      List.fold_left (fun acc f -> acc + field_read_cost f) 0 key
      + 15
      + (6 * Steer.key_width key)
      + 2
  | Steer.Worker _ ->
      (* Mirror liveness lookup, plus the fallback in the worst case. *)
      10
      + (match on_dead with
        | Some fb -> target_cost ~on_dead:None fb
        | None -> 0)

let static_cost (t : Steer.t) =
  let targets =
    List.map (fun (r : Steer.rule) -> r.target) t.rules
    @ (match t.default with Some d -> [ d ] | None -> [])
  in
  let worst =
    List.fold_left
      (fun acc tg -> max acc (target_cost ~on_dead:t.on_dead tg))
      0 targets
  in
  List.fold_left (fun acc (r : Steer.rule) -> acc + guard_cost r.guard) 0 t.rules
  + worst

(* ------------------------------------------------------------------ *)

let verify ~env (t : Steer.t) =
  let diags = ref [] in
  let reject fmt =
    Format.kasprintf (fun s -> diags := (t.name ^ ": " ^ s) :: !diags) fmt
  in
  (* -- well-formedness and determinism: payload-prefix confinement -- *)
  let check_field where = function
    | Steer.Payload i when i < 0 || i >= env.payload_prefix ->
        reject
          "%s reads payload[%d], outside the guaranteed-parseable %d-byte \
           prefix (deterministic steering may only read header fields and \
           the declared prefix)"
          where i env.payload_prefix
    | _ -> ()
  in
  List.iteri
    (fun i (r : Steer.rule) ->
      List.iter
        (fun (a : Steer.atom) ->
          let dlo, dhi = Steer.field_domain a.field in
          if a.lo > a.hi then
            reject "rule %d: empty interval [%d,%d] on %a (never matches)" i
              a.lo a.hi Steer.pp_field a.field
          else if a.lo < dlo || a.hi > dhi then
            reject "rule %d: interval [%d,%d] exceeds the domain [%d,%d] of %a"
              i a.lo a.hi dlo dhi Steer.pp_field a.field;
          check_field (Printf.sprintf "rule %d guard" i) a.field)
        r.guard)
    t.rules;
  (* -- target validity ---------------------------------------------- *)
  let check_target where = function
    | Steer.Queue q ->
        if q < 0 || q >= env.queues then
          reject "%s: queue %d out of range [0,%d)" where q env.queues
    | Steer.Rss -> ()
    | Steer.Worker w ->
        if w < 0 || w >= env.workers then
          reject "%s: worker %d out of range [0,%d)" where w env.workers
    | Steer.Hash_lane { key; lanes; base } ->
        if lanes <= 0 then reject "%s: hash target needs lanes > 0" where;
        if base < 0 || base + lanes > env.queues then
          reject "%s: lane window [%d,%d) outside the queue range [0,%d)" where
            base (base + lanes) env.queues;
        (match key with
        | [] -> reject "%s: hash target with an empty key" where
        | _ -> ());
        List.iter (fun f -> check_field where f) key
  in
  List.iteri
    (fun i (r : Steer.rule) ->
      check_target (Printf.sprintf "rule %d" i) r.target)
    t.rules;
  (match t.default with Some d -> check_target "default" d | None -> ());
  (match t.on_dead with Some d -> check_target "on_dead fallback" d | None -> ());
  (* -- worker pinning composed with stale-mirror dispatch ----------- *)
  let is_worker = function Steer.Worker _ -> true | _ -> false in
  let pins_worker =
    List.exists (fun (r : Steer.rule) -> is_worker r.target) t.rules
    || (match t.default with Some d -> is_worker d | None -> false)
  in
  (match t.on_dead with
  | Some d when is_worker d ->
      reject "on_dead fallback must not itself pin a worker"
  | _ -> ());
  if pins_worker then begin
    let with_fallback =
      match t.on_dead with Some d -> not (is_worker d) | None -> false
    in
    match Protocheck.Steer_model.check ~with_fallback () with
    | Protocheck.State_space.Ok_verdict _ -> ()
    | Invariant_violation { message; trace; _ } ->
        reject
          "worker-pinned program is unsafe across scheduler-mirror updates: \
           %s@,counterexample (stale-mirror model):@,%a@,declare a non-worker \
           on_dead fallback"
          message Protocheck.Steer_model.pp_trace trace
    | Deadlock { trace; _ } ->
        reject
          "worker-pinned program deadlocks the dispatch model:@,%a@,declare \
           a non-worker on_dead fallback"
          Protocheck.Steer_model.pp_trace trace
    | State_limit _ ->
        reject "stale-mirror model exploration hit the state limit"
  end;
  (* -- totality: disjointness + coverage ---------------------------- *)
  let boxes =
    List.mapi
      (fun i (r : Steer.rule) ->
        match guard_box r.guard with
        | Some b -> (i, b)
        | None ->
            reject "rule %d: guard is unsatisfiable (dead rule)" i;
            (i, [ (Steer.Length, 1, 0) ] (* empty box: never overlaps *)))
      t.rules
  in
  let rec pairs = function
    | [] -> ()
    | (i, bi) :: rest ->
        List.iter
          (fun (j, bj) ->
            match overlap_witness bi bj with
            | Some w ->
                reject
                  "rules %d and %d overlap — double dispatch on the packet \
                   {%a}"
                  i j pp_witness w
            | None -> ())
          rest;
        pairs rest
  in
  pairs boxes;
  (match t.default with
  | Some _ -> () (* the default catches every fallthrough *)
  | None ->
      let live_boxes = List.map snd boxes in
      let fields = fields_of_boxes live_boxes in
      let space =
        List.map
          (fun f ->
            let lo, hi = Steer.field_domain f in
            (f, lo, hi))
          fields
      in
      (match fields with
      | [] -> (
          (* No constrained fields at all: total iff a match-all rule
             exists (overlaps were already reported above). *)
          match t.rules with
          | [] -> reject "no rules and no default: every packet is lost"
          | _ -> ())
      | _ -> (
          match cover space live_boxes with
          | Covered -> ()
          | Hole witness ->
              reject
                "no rule matches the packet {%a} and there is no default — \
                 packets there are lost"
                pp_witness witness)));
  (* -- bounded deterministic cost ----------------------------------- *)
  let cost = static_cost t in
  if cost > env.cost_budget then
    reject
      "static per-packet cost %d ns exceeds the budget %d ns — simplify \
       guards or shrink hash keys"
      cost env.cost_budget;
  match !diags with
  | [] -> Ok { prog = t; cost }
  | ds -> Error (List.rev ds)

let install ?metrics ?alive ?worker_lane ~nic v =
  let f = Steer.compile ~rss:(Dma_nic.rss nic) ?alive ?worker_lane v.prog in
  let f =
    match metrics with
    | None -> f
    | Some m ->
        let nq = Dma_nic.nqueues nic in
        let total = Obs.Metrics.counter m "steer_decisions" in
        let lanes =
          Array.init nq (fun i ->
              Obs.Metrics.counter m (Printf.sprintf "steer_lane_%d" i))
        in
        fun frame ->
          let lane = f frame in
          Obs.Metrics.incr total;
          Obs.Metrics.incr lanes.(((lane mod nq) + nq) mod nq);
          lane
  in
  Dma_nic.set_steering ~cost:v.cost nic f
