type t = { base : bytes; off : int; len : int }

let[@hot_path] make base ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length base then
    invalid_arg
      (Printf.sprintf "Slice.make: [%d,%d) outside buffer of %d bytes" off
         (off + len) (Bytes.length base))
  else ({ base; off; len } [@alloc_ok])

let of_bytes b = { base = b; off = 0; len = Bytes.length b }
let empty = { base = Bytes.empty; off = 0; len = 0 }
let[@hot_path] length t = t.len

let[@hot_path] get t i =
  if i < 0 || i >= t.len then invalid_arg "Slice.get: index out of bounds";
  Bytes.unsafe_get t.base (t.off + i)

let[@hot_path] sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg
      (Printf.sprintf "Slice.sub: [%d,%d) outside slice of %d bytes" off
        (off + len) t.len)
  else ({ base = t.base; off = t.off + off; len } [@alloc_ok])

let to_bytes t = Bytes.sub t.base t.off t.len
let to_string t = Bytes.sub_string t.base t.off t.len

let of_string s = of_bytes (Bytes.of_string s)

let[@hot_path] blit t dst ~dst_off =
  Bytes.blit t.base t.off dst dst_off t.len

let[@hot_path] equal a b =
  Int.equal a.len b.len
  &&
  let rec go i =
    Int.equal i a.len
    || Char.equal
         (Bytes.unsafe_get a.base (a.off + i))
         (Bytes.unsafe_get b.base (b.off + i))
       && go (i + 1)
  in
  go 0

let[@hot_path] is_prefix_of t b =
  Bytes.length b >= t.len
  &&
  let rec go i =
    Int.equal i t.len
    || Char.equal (Bytes.unsafe_get t.base (t.off + i)) (Bytes.unsafe_get b i)
       && go (i + 1)
  in
  go 0

