type t =
  | Unit
  | Bool
  | Int
  | Float
  | Str
  | Blob
  | List of t
  | Tuple of t list

let rec conforms (v : Value.t) (s : t) =
  match v, s with
  | Value.Unit, Unit
  | Value.Bool _, Bool
  | Value.Int _, Int
  | Value.Float _, Float
  | Value.Str _, Str
  | Value.Blob _, Blob ->
      true
  | Value.List vs, List elt -> List.for_all (fun v -> conforms v elt) vs
  | Value.Tuple vs, Tuple ss ->
      Int.equal (List.length vs) (List.length ss)
      && List.for_all2 conforms vs ss
  | ( Value.(Unit | Bool _ | Int _ | Float _ | Str _ | Blob _ | List _
            | Tuple _),
      (Unit | Bool | Int | Float | Str | Blob | List _ | Tuple _) ) ->
      false

let rec default = function
  | Unit -> Value.Unit
  | Bool -> Value.Bool false
  | Int -> Value.Int 0L
  | Float -> Value.Float 0.
  | Str -> Value.Str ""
  | Blob -> Value.Blob Bytes.empty
  | List _ -> Value.List []
  | Tuple ss -> Value.Tuple (List.map default ss)

let rec arbitrary s rng ~size_hint =
  match s with
  | Unit -> Value.Unit
  | Bool -> Value.Bool (Sim.Rng.bool rng)
  | Int -> Value.Int (Sim.Rng.bits64 rng)
  | Float -> Value.Float (Sim.Rng.float rng)
  | Str ->
      let n = max 0 size_hint in
      Value.Str
        (String.init n (fun _ -> Char.chr (97 + Sim.Rng.int rng ~bound:26)))
  | Blob ->
      let n = max 0 size_hint in
      Value.Blob
        (Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng ~bound:256)))
  | List elt ->
      let n = 1 + Sim.Rng.int rng ~bound:4 in
      let per = max 0 (size_hint / n) in
      Value.List (List.init n (fun _ -> arbitrary elt rng ~size_hint:per))
  | Tuple ss ->
      let n = max 1 (List.length ss) in
      let per = max 0 (size_hint / n) in
      Value.Tuple (List.map (fun s -> arbitrary s rng ~size_hint:per) ss)

