(* The Toeplitz hash XORs, for every set bit of the input, the 32-bit
   window of the key that starts at that bit's offset. The XOR over a
   nibble's set bits depends only on the key, the nibble's position and
   its value, so each key gets one table: [tbl.(16 * n + v)] is the XOR
   of the windows for the set bits of value [v] at nibble position [n].
   Hashing is then one lookup per input nibble. The table covers the
   key's [2 * length] nibble positions; input past the key's end has
   zero windows and is skipped. *)
type t = { tbl : int array; indirection : int array }

let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
   \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
   \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

(* Key byte [i], zero past the key's end. *)
let key_byte key i =
  if i < String.length key then Char.code (String.get key i) else 0

(* Bit [b] of nibble [n], counted from its most significant bit, has
   value [m = 8 lsr b] and adds the key's 32-bit window at bit offset
   [4 * n + b]: bits [8 - k] to [39 - k] of the 40 key bits from byte
   [n / 2] on, for [k = 4 * (n mod 2) + b]. Row [n] grows a bit at a
   time, lowest first: with the values below [m] done, value [m + v]
   is value [v] plus bit [m]'s window. *)
let table_of key =
  let tbl = Array.make (32 * String.length key) 0 in
  for n = 0 to (2 * String.length key) - 1 do
    let i = n / 2 in
    let forty =
      (key_byte key i lsl 32)
      lor (key_byte key (i + 1) lsl 24)
      lor (key_byte key (i + 2) lsl 16)
      lor (key_byte key (i + 3) lsl 8)
      lor key_byte key (i + 4)
    in
    for b = 3 downto 0 do
      let m = 8 lsr b in
      let w = (forty lsr (8 - ((4 * (n mod 2)) + b))) land 0xffff_ffff in
      for v = 0 to m - 1 do
        tbl.((16 * n) + m + v) <- tbl.((16 * n) + v) lxor w
      done
    done
  done;
  tbl

(* XOR into [acc] the entries of the four nibbles of the 16-bit value
   [v], whose most significant nibble sits at nibble position [n0]. *)
let[@hot_path] fold16 tbl acc n0 v =
  let row = 16 * n0 in
  acc
  lxor tbl.(row + ((v lsr 12) land 0xf))
  lxor tbl.(row + 16 + ((v lsr 8) land 0xf))
  lxor tbl.(row + 32 + ((v lsr 4) land 0xf))
  lxor tbl.(row + 48 + (v land 0xf))

let[@hot_path] hash_bytes tbl data ~len =
  let acc = ref 0 in
  for i = 0 to min len (Array.length tbl / 32) - 1 do
    let c = Char.code (Bytes.get data i) in
    let row = 32 * i in
    acc := !acc lxor tbl.(row + (c lsr 4)) lxor tbl.(row + 16 + (c land 0xf))
  done;
  !acc

let create ?(key = default_key) ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues <= 0";
  if String.length key < 40 then invalid_arg "Rss.create: key shorter than 40B";
  (* 128-entry indirection table, round-robin initialised (the common
     driver default). *)
  let indirection = Array.init 128 (fun i -> i mod queues) in
  { tbl = table_of key; indirection }

let toeplitz_hash ~key data =
  hash_bytes (table_of key) data ~len:(Bytes.length data)

let hash t data = hash_bytes t.tbl data ~len:(Bytes.length data)

let hash_prefix t data ~len =
  if len < 0 || len > Bytes.length data then
    invalid_arg "Rss.hash_prefix: len out of range";
  hash_bytes t.tbl data ~len

(* The input is src_ip, dst_ip, src_port, dst_port, big-endian: 24
   nibbles read straight from the ints, 16 bits at a time. A key is at
   least 40 bytes, so its table covers all 24. *)
let[@hot_path] hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port =
  let tbl = t.tbl in
  let sip = Net.Ip_addr.to_int src_ip and dip = Net.Ip_addr.to_int dst_ip in
  let acc = fold16 tbl 0 0 (sip lsr 16) in
  let acc = fold16 tbl acc 4 sip in
  let acc = fold16 tbl acc 8 (dip lsr 16) in
  let acc = fold16 tbl acc 12 dip in
  let acc = fold16 tbl acc 16 src_port in
  fold16 tbl acc 20 dst_port

let queue_for t ~src_ip ~dst_ip ~src_port ~dst_port =
  let h = hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port in
  t.indirection.(h land (Array.length t.indirection - 1))

let[@hot_path] queue_of_frame t (f : Net.Frame.t) =
  let src = f.Net.Frame.src and dst = f.Net.Frame.dst in
  queue_for t ~src_ip:src.Net.Frame.ip ~dst_ip:dst.Net.Frame.ip
    ~src_port:src.Net.Frame.port ~dst_port:dst.Net.Frame.port
