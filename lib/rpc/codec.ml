type error = Truncated | Trailing_bytes of int | Overlong_varint

exception Decode_error of error

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag v =
  Int64.logxor
    (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

let write_varint w v =
  let rec go v =
    let low = Int64.to_int (Int64.logand v 0x7fL) in
    let rest = Int64.shift_right_logical v 7 in
    if rest = 0L then Net.Buf.write_u8 w low
    else begin
      Net.Buf.write_u8 w (low lor 0x80);
      go rest
    end
  in
  go v

let read_varint r =
  let rec go acc shift count =
    if count > 10 then raise (Decode_error Overlong_varint);
    let b = Net.Buf.read_u8 r in
    let acc =
      Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
    in
    if b land 0x80 = 0 then acc else go acc (shift + 7) (count + 1)
  in
  go 0L 0 1

let varint_size v =
  let rec go v n =
    let rest = Int64.shift_right_logical v 7 in
    if rest = 0L then n else go rest (n + 1)
  in
  go v 1

(* The same varints for a length, an [int] that is never negative,
   without boxing: [write_length w n] writes the bytes of
   [write_varint w (Int64.of_int n)]. *)
let[@hot_path] rec write_length w n =
  if n < 0x80 then Net.Buf.write_u8 w n
  else begin
    Net.Buf.write_u8 w (n land 0x7f lor 0x80);
    write_length w (n lsr 7)
  end

let[@hot_path] rec length_size n =
  if n < 0x80 then 1 else 1 + length_size (n lsr 7)

(* [Int64.to_int (read_varint r)], raising what it raises. [to_int]
   keeps the low 63 bits, so a tenth byte (shift 63) adds nothing. *)
let[@hot_path] rec read_varint_from r acc shift count =
  if count > 10 then raise (Decode_error Overlong_varint);
  let b = Net.Buf.read_u8 r in
  let acc = if shift < 63 then acc lor ((b land 0x7f) lsl shift) else acc in
  if b land 0x80 = 0 then acc
  else read_varint_from r acc (shift + 7) (count + 1)

let[@hot_path] read_varint_int r = read_varint_from r 0 0 1

let rec encoded_size (v : Value.t) =
  match v with
  | Value.Unit -> 0
  | Value.Bool _ -> 1
  | Value.Int i -> varint_size (zigzag i)
  | Value.Float _ -> 8
  | Value.Str s ->
      let n = String.length s in
      length_size n + n
  | Value.Blob b ->
      let n = Bytes.length b in
      length_size n + n
  | Value.List vs ->
      List.fold_left
        (fun acc v -> acc + encoded_size v)
        (length_size (List.length vs))
        vs
  | Value.Tuple vs -> List.fold_left (fun acc v -> acc + encoded_size v) 0 vs

let rec write w (v : Value.t) =
  match v with
  | Value.Unit -> ()
  | Value.Bool b -> Net.Buf.write_u8 w (if b then 1 else 0)
  | Value.Int i -> write_varint w (zigzag i)
  | Value.Float f -> Net.Buf.write_u64 w (Int64.bits_of_float f)
  | Value.Str s ->
      write_length w (String.length s);
      Net.Buf.write_string w s
  | Value.Blob b ->
      write_length w (Bytes.length b);
      Net.Buf.write_bytes w b
  | Value.List vs ->
      write_length w (List.length vs);
      List.iter (write w) vs
  | Value.Tuple vs -> List.iter (write w) vs

(* [encoded_size] is exact, so the writer's buffer is the room and the
   encoding. The buffer is not zero-filled first: the room and the value
   overwrite every byte, and [Net.Buf.filled] fails unless they did. *)
let encode_at room v =
  let w = Net.Buf.writer_over (Bytes.create (room + encoded_size v)) in
  Net.Buf.write_zeros w room;
  write w v;
  Net.Buf.filled w

let encode v = encode_at 0 v

(* A length prefix. Varints up to 2^64 - 1 decode, so a hostile one can
   land negative after [Int64.to_int]. *)
let[@hot_path] read_length r =
  let n = read_varint_int r in
  if n < 0 then raise (Decode_error Truncated);
  n

let rec read_value (s : Schema.t) r : Value.t =
  match s with
  | Schema.Unit -> Value.Unit
  | Schema.Bool -> Value.Bool (Net.Buf.read_u8 r <> 0)
  | Schema.Int -> Value.Int (unzigzag (read_varint r))
  | Schema.Float -> Value.Float (Int64.float_of_bits (Net.Buf.read_u64 r))
  | Schema.Str ->
      (* [read_bytes] returns a fresh copy that nothing else holds. *)
      Value.Str
        (Bytes.unsafe_to_string (Net.Buf.read_bytes r ~len:(read_length r)))
  | Schema.Blob -> Value.Blob (Net.Buf.read_bytes r ~len:(read_length r))
  | Schema.List elt ->
      let n = read_length r in
      (* Elements may be zero-width (unit), so the remaining byte count
         cannot bound [n]; cap it to keep hostile lengths from
         allocating unbounded lists before the inevitable failure. *)
      if n > 16_777_216 then raise (Decode_error Truncated);
      Value.List (List.init n (fun _ -> read_value elt r))
  | Schema.Tuple ss -> Value.Tuple (List.map (fun s -> read_value s r) ss)

(* One [Ok] per decode: the value is checked for trailing bytes before
   it is wrapped. *)
let decode_sub s b ~pos ~len =
  let r = Net.Buf.sub_reader b ~pos ~len in
  match read_value s r with
  | v ->
      let rest = Net.Buf.remaining r in
      if rest = 0 then Ok v else Error (Trailing_bytes rest)
  | exception Decode_error e -> Error e
  | exception Net.Buf.Out_of_bounds _ -> Error Truncated

let decode s b = decode_sub s b ~pos:0 ~len:(Bytes.length b)

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated value"
  | Trailing_bytes n -> Format.fprintf ppf "%d trailing bytes" n
  | Overlong_varint -> Format.pp_print_string ppf "overlong varint"
