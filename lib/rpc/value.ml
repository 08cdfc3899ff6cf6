type t =
  | Unit
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Blob of bytes
  | List of t list
  | Tuple of t list

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int64.equal x y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Blob x, Blob y -> Bytes.equal x y
  | List x, List y | Tuple x, Tuple y -> equal_list x y
  | (Unit | Bool _ | Int _ | Float _ | Str _ | Blob _ | List _ | Tuple _), _
    ->
      false

and equal_list x y =
  match x, y with
  | [], [] -> true
  | a :: x, b :: y -> equal a b && equal_list x y
  | [], _ :: _ | _ :: _, [] -> false

let rec field_count = function
  | Unit | Bool _ | Int _ | Float _ | Str _ | Blob _ -> 1
  | List [] | Tuple [] -> 1
  | List vs | Tuple vs ->
      List.fold_left (fun acc v -> acc + field_count v) 0 vs

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.fprintf ppf "%Ld" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Blob b -> Format.fprintf ppf "<blob:%d>" (Bytes.length b)
  | List vs ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p ";@ ") pp)
        vs
  | Tuple vs ->
      Format.fprintf ppf "(@[%a@])"
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p ",@ ") pp)
        vs

let int i = Int (Int64.of_int i)
let str s = Str s
