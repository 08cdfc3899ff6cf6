(* Represented as an immediate [int]: 48 bits fit in OCaml's 63-bit
   native int, so addresses never box — an [int64] representation would
   allocate on every read/compare without flambda. *)
type t = int

let of_int v =
  if v lsr 48 <> 0 then invalid_arg "Mac_addr.of_int: more than 48 bits";
  v

let to_int t = t

let of_int64 v =
  if Int64.shift_right_logical v 48 <> 0L then
    invalid_arg "Mac_addr.of_int64: more than 48 bits";
  Int64.to_int v

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then
    invalid_arg ("Mac_addr.of_string: " ^ s);
  let octet p =
    if String.length p <> 2 then invalid_arg ("Mac_addr.of_string: " ^ s);
    match int_of_string_opt ("0x" ^ p) with
    | Some v when v >= 0 && v <= 0xff -> v
    | Some _ | None -> invalid_arg ("Mac_addr.of_string: " ^ s)
  in
  List.fold_left (fun acc p -> (acc lsl 8) lor octet p) 0 parts

let octet_at t i = (t lsr (8 * (5 - i))) land 0xff

let to_string t =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (octet_at t i)))

let broadcast = 0xffff_ffff_ffff
let is_broadcast t = Int.equal t broadcast
let is_multicast t = octet_at t 0 land 1 = 1

let equal = Int.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)
