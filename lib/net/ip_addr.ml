type t = int

let of_int v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg "Ip_addr.of_int: not a 32-bit value";
  v

let to_int t = t

let of_string s =
  let parts = String.split_on_char '.' s in
  if List.length parts <> 4 then invalid_arg ("Ip_addr.of_string: " ^ s);
  let octet p =
    match int_of_string_opt p with
    | Some v when v >= 0 && v <= 255 && p <> "" -> v
    | Some _ | None -> invalid_arg ("Ip_addr.of_string: " ^ s)
  in
  List.fold_left (fun acc p -> (acc lsl 8) lor octet p) 0 parts

let to_string t =
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff)
    (t land 0xff)

let in_subnet t ~network ~prefix_len =
  if prefix_len < 0 || prefix_len > 32 then
    invalid_arg "Ip_addr.in_subnet: prefix_len out of [0,32]";
  if prefix_len = 0 then true
  else
    let mask = lnot ((1 lsl (32 - prefix_len)) - 1) land 0xffff_ffff in
    Int.equal (t land mask) (network land mask)

let equal = Int.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)
