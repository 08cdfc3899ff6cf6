type error = Truncated | Trailing_bytes of int | Overlong_varint

(* Both directions work at integer offsets into the buffer, with no
   cursor record: [put] returns the next position, [skip] returns where
   an encoding ends (or a negative code), and [build] reads an encoding
   [skip] has already validated. *)

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag v =
  Int64.logxor
    (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

(* An Int's varint is its zigzag's low 7 bits, then (if any are left)
   the rest as an [int] length: after the first shift at most 57 bits
   remain, so the rest never needs an [Int64]. *)
let[@inline] zigzag_low i = Int64.to_int (zigzag i) land 0x7f
let[@inline] zigzag_rest i = Int64.to_int (Int64.shift_right_logical (zigzag i) 7)

let[@hot_path] rec length_size n =
  if n < 0x80 then 1 else 1 + length_size (n lsr 7)

let rec encoded_size (v : Value.t) =
  match v with
  | Value.Unit -> 0
  | Value.Bool _ -> 1
  | Value.Int i ->
      let rest = zigzag_rest i in
      if Int.equal rest 0 then 1 else 1 + length_size rest
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

(* ---------- Encoding ---------- *)

(* The varint of a length [n >= 0] at [pos]; the next position. *)
let[@hot_path] rec put_length b pos n =
  if n < 0x80 then begin
    Bytes.set_uint8 b pos n;
    pos + 1
  end
  else begin
    Bytes.set_uint8 b pos (n land 0x7f lor 0x80);
    put_length b (pos + 1) (n lsr 7)
  end

let[@hot_path] rec put b pos (v : Value.t) =
  match v with
  | Value.Unit -> pos
  | Value.Bool x ->
      Bytes.set_uint8 b pos (if x then 1 else 0);
      pos + 1
  | Value.Int i ->
      let rest = zigzag_rest i in
      if Int.equal rest 0 then begin
        Bytes.set_uint8 b pos (zigzag_low i);
        pos + 1
      end
      else begin
        Bytes.set_uint8 b pos (zigzag_low i lor 0x80);
        put_length b (pos + 1) rest
      end
  | Value.Float f ->
      Bytes.set_int64_be b pos (Int64.bits_of_float f);
      pos + 8
  | Value.Str s ->
      let n = String.length s in
      let pos = put_length b pos n in
      Bytes.blit_string s 0 b pos n;
      pos + n
  | Value.Blob x ->
      let n = Bytes.length x in
      let pos = put_length b pos n in
      Bytes.blit x 0 b pos n;
      pos + n
  | Value.List vs -> put_all b (put_length b pos (List.length vs)) vs
  | Value.Tuple vs -> put_all b pos vs

and put_all b pos = function
  | [] -> pos
  | v :: vs -> put_all b (put b pos v) vs

(* [encoded_size] is exact, so the buffer is the room and the encoding.
   It is not zero-filled first: the room is zeroed and the value
   overwrites every other byte, and the length check fails unless it
   did. *)
let encode_at room v =
  if room < 0 then invalid_arg "Codec.encode_at: negative room";
  let b = Bytes.create (room + encoded_size v) in
  Bytes.fill b 0 room '\000';
  if not (Int.equal (put b room v) (Bytes.length b)) then
    invalid_arg "Codec.encode_at: encoding does not fill its buffer";
  b

let encode v = encode_at 0 v

(* ---------- Decoding ---------- *)

(* [skip]'s answers below zero. *)
let truncated = -1
let overlong = -2

(* Lists of zero-width elements (unit) are not bounded by the bytes
   left, so a hostile length is capped before anything is built. *)
let max_list = 16_777_216

(* Where the varint at [b[pos, limit)] ends. A varint is at most 10
   bytes: an eleventh is [overlong] even where the range ends, because
   the count is checked before the byte is read. *)
let[@hot_path] rec skip_varint b pos limit count =
  if count > 10 then overlong
  else if pos >= limit then truncated
  else if Bytes.get_uint8 b pos land 0x80 = 0 then pos + 1
  else skip_varint b (pos + 1) limit (count + 1)

(* The low 63 bits of the varint at [pos], [skip_varint] having found
   it complete: the tenth byte (shift 63) adds nothing to an [int]. *)
let[@hot_path] rec varint_int b pos acc shift =
  let x = Bytes.get_uint8 b pos in
  let acc = if shift < 63 then acc lor ((x land 0x7f) lsl shift) else acc in
  if x land 0x80 = 0 then acc else varint_int b (pos + 1) acc (shift + 7)

(* A length prefix at [pos] that [skip_varint] ended at [stop >= 0].
   Varints up to 2^64 - 1 are complete, so a hostile one can land
   negative as an [int]: that is [truncated]. *)
let[@hot_path] length_at b pos stop =
  if stop < 0 then stop
  else
    let n = varint_int b pos 0 0 in
    if n < 0 then truncated else n

(* Where the encoding of [s] at [b[pos, limit)] ends, checking in the
   order the bytes are read; [truncated] or [overlong] on the first
   error. *)
let[@hot_path] rec skip (s : Schema.t) b pos limit =
  match s with
  | Schema.Unit -> pos
  | Schema.Bool -> if pos < limit then pos + 1 else truncated
  | Schema.Int -> skip_varint b pos limit 1
  | Schema.Float -> if limit - pos >= 8 then pos + 8 else truncated
  | Schema.Str | Schema.Blob ->
      let stop = skip_varint b pos limit 1 in
      let n = length_at b pos stop in
      if n < 0 then n else if n > limit - stop then truncated else stop + n
  | Schema.List elt ->
      let stop = skip_varint b pos limit 1 in
      let n = length_at b pos stop in
      if n < 0 then n
      else if n > max_list then truncated
      else skip_n elt b stop limit n
  | Schema.Tuple ss -> skip_fields ss b pos limit

and skip_n elt b pos limit n =
  if Int.equal n 0 || pos < 0 then pos
  else skip_n elt b (skip elt b pos limit) limit (n - 1)

and skip_fields ss b pos limit =
  match ss with
  | [] -> pos
  | s :: ss -> if pos < 0 then pos else skip_fields ss b (skip s b pos limit) limit

(* The Int varint at [pos], as [read_varint] assembled it: the low 63
   bits from [varint_int], bit 63 from the tenth byte's low bit. *)
let[@inline] int_at b pos =
  let stop = skip_varint b pos max_int 1 in
  let low = Int64.logand (Int64.of_int (varint_int b pos 0 0)) Int64.max_int in
  if Int.equal (stop - pos) 10 && Bytes.get_uint8 b (pos + 9) land 1 = 1 then
    Int64.logor low Int64.min_int
  else low

(* The value [skip] validated at [pos]; [limit] bounds the [skip] of
   each element before the next. *)
let rec build (s : Schema.t) b pos limit : Value.t =
  match s with
  | Schema.Unit -> Value.Unit
  | Schema.Bool -> Value.Bool (Bytes.get_uint8 b pos <> 0)
  | Schema.Int -> Value.Int (unzigzag (int_at b pos))
  | Schema.Float -> Value.Float (Int64.float_of_bits (Bytes.get_int64_be b pos))
  | Schema.Str ->
      let stop = skip_varint b pos limit 1 in
      Value.Str (Bytes.sub_string b stop (varint_int b pos 0 0))
  | Schema.Blob ->
      let stop = skip_varint b pos limit 1 in
      Value.Blob (Bytes.sub b stop (varint_int b pos 0 0))
  | Schema.List elt ->
      let stop = skip_varint b pos limit 1 in
      Value.List (build_n elt b stop limit (varint_int b pos 0 0))
  | Schema.Tuple ss -> Value.Tuple (build_fields ss b pos limit)

and[@tail_mod_cons] build_n elt b pos limit n =
  if Int.equal n 0 then []
  else build elt b pos limit :: build_n elt b (skip elt b pos limit) limit (n - 1)

and[@tail_mod_cons] build_fields ss b pos limit =
  match ss with
  | [] -> []
  | s :: ss ->
      build s b pos limit :: build_fields ss b (skip s b pos limit) limit

(* One [Ok] per decode, and none on an error. *)
let decode_sub s b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Codec.decode_sub: range outside the buffer";
  let limit = pos + len in
  let stop = skip s b pos limit in
  if Int.equal stop limit then Ok (build s b pos limit)
  else if stop >= 0 then Error (Trailing_bytes (limit - stop))
  else if Int.equal stop overlong then Error Overlong_varint
  else Error Truncated

let decode s b = decode_sub s b ~pos:0 ~len:(Bytes.length b)

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated value"
  | Trailing_bytes n -> Format.fprintf ppf "%d trailing bytes" n
  | Overlong_varint -> Format.pp_print_string ppf "overlong varint"
