let[@hot_path] fold_carries sum =
  let rec go s = if s lsr 16 = 0 then s else go ((s land 0xffff) + (s lsr 16)) in
  go sum

let check_range name b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg (Printf.sprintf "Checksum.%s: range out of bounds" name)

(* The checked big-endian loop: 2 bytes per iteration, an odd last byte
   padded with zero. *)
let[@hot_path] sum_pairs sum b ~pos ~stop =
  let sum = ref sum in
  let i = ref pos in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  !sum

let[@hot_path] ones_complement_sum_bytewise ~init b ~pos ~len =
  check_range "ones_complement_sum_bytewise" b ~pos ~len;
  fold_carries (sum_pairs init b ~pos ~stop:(pos + len))

let[@hot_path] swap16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
(* Unchecked native-endian 64-bit load. Safe here: [check_range]
   validates the whole range once up front. Each load feeds straight
   into [Int64] operations that end in an [int], so the compiler keeps
   it unboxed without flambda: the word loop allocates nothing. *)

(* A word's two 32-bit halves as [int]s. A half is two native-endian
   16-bit lanes, [hi * 2^16 + lo], and 2^16 = 1 modulo 0xffff, so
   adding halves and folding at the end gives the lanes' sum. *)
let[@inline] lo32 w = Int64.to_int (Int64.logand w 0xffff_ffffL)
let[@inline] hi32 w = Int64.to_int (Int64.shift_right_logical w 32)

(* The one's-complement sum is invariant under uniform byte order
   (RFC 1071 §2(B)): summing the data as native-endian lanes and
   byte-swapping the folded result equals the big-endian sum. The main
   loop consumes 32 bytes per iteration as four unchecked 64-bit loads,
   and only the tail of fewer than 32 bytes falls back to the checked
   big-endian pair loop. Each 8 bytes add less than 2^33 to [acc], so
   it cannot overflow [max_int] (2^62 - 1) on a range shorter than 2^32
   bytes (4 GiB); a UDP segment is at most 64 KiB. *)
let[@hot_path] ones_complement_sum ~init b ~pos ~len =
  check_range "ones_complement_sum" b ~pos ~len;
  let stop = pos + len in
  let acc = ref 0 in
  let i = ref pos in
  while !i + 32 <= stop do
    let j = !i in
    let w0 = get64u b j and w1 = get64u b (j + 8) in
    let w2 = get64u b (j + 16) and w3 = get64u b (j + 24) in
    (* Summed as a tree, so the adds of one iteration do not wait on
       each other. *)
    acc :=
      !acc
      + (lo32 w0 + hi32 w0 + (lo32 w1 + hi32 w1)
        + (lo32 w2 + hi32 w2 + (lo32 w3 + hi32 w3)));
    i := j + 32
  done;
  let words = fold_carries !acc in
  let words = if Sys.big_endian then words else swap16 words in
  (* The word loop consumed a multiple of 32 bytes from [pos], so the
     tail keeps the 16-bit pairing parity. *)
  fold_carries (sum_pairs (init + words) b ~pos:!i ~stop)

let[@hot_path] finish sum = lnot (fold_carries sum) land 0xffff

let[@hot_path] compute b ~pos ~len =
  finish (ones_complement_sum ~init:0 b ~pos ~len)

let[@hot_path] verify b ~pos ~len =
  fold_carries (ones_complement_sum ~init:0 b ~pos ~len) = 0xffff
