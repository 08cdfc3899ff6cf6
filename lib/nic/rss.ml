(* The Toeplitz hash XORs, for every set bit of the input, the 32-bit
   window of the key that starts at that bit's offset. The windows
   depend only on the key, so each key's are computed once: [windows.(b)]
   is the window at bit offset [b], and bits past the key's end have
   none (their windows are zero). *)
type t = { windows : int array; indirection : int array }

let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
   \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
   \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

(* Key byte [i], zero past the key's end. *)
let key_byte key i =
  if i < String.length key then Char.code (String.get key i) else 0

(* The 32-bit window of [key] starting at bit offset [bit]. *)
let window key bit =
  let byte = bit / 8 in
  let forty =
    (key_byte key byte lsl 32)
    lor (key_byte key (byte + 1) lsl 24)
    lor (key_byte key (byte + 2) lsl 16)
    lor (key_byte key (byte + 3) lsl 8)
    lor key_byte key (byte + 4)
  in
  (forty lsr (8 - (bit mod 8))) land 0xffff_ffff

let windows_of key = Array.init (8 * String.length key) (window key)
let default_windows = windows_of default_key

(* XOR into [acc] the window of every set bit of the [width]-bit value
   [v], whose most significant bit sits at bit offset [bit0]. *)
let[@hot_path] fold_bits windows acc ~bit0 ~width v =
  let acc = ref acc in
  for b = 0 to min width (Array.length windows - bit0) - 1 do
    if (v lsr (width - 1 - b)) land 1 <> 0 then
      acc := !acc lxor windows.(bit0 + b)
  done;
  !acc

let[@hot_path] hash_bytes windows data ~len =
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      fold_bits windows !acc ~bit0:(8 * i) ~width:8
        (Char.code (Bytes.get data i))
  done;
  !acc

let create ?(key = default_key) ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues <= 0";
  if String.length key < 40 then invalid_arg "Rss.create: key shorter than 40B";
  (* 128-entry indirection table, round-robin initialised (the common
     driver default). *)
  let indirection = Array.init 128 (fun i -> i mod queues) in
  let windows =
    if String.equal key default_key then default_windows else windows_of key
  in
  { windows; indirection }

let toeplitz_hash ~key data =
  let windows =
    if String.equal key default_key then default_windows else windows_of key
  in
  hash_bytes windows data ~len:(Bytes.length data)

let hash data = hash_bytes default_windows data ~len:(Bytes.length data)

let hash_prefix data ~len =
  if len < 0 || len > Bytes.length data then
    invalid_arg "Rss.hash_prefix: len out of range";
  hash_bytes default_windows data ~len

(* The input is src_ip, dst_ip, src_port, dst_port, big-endian: 96 bits
   folded straight from the ints. *)
let[@hot_path] hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port =
  let w = t.windows in
  let acc = fold_bits w 0 ~bit0:0 ~width:32 (Net.Ip_addr.to_int src_ip) in
  let acc = fold_bits w acc ~bit0:32 ~width:32 (Net.Ip_addr.to_int dst_ip) in
  let acc = fold_bits w acc ~bit0:64 ~width:16 src_port in
  fold_bits w acc ~bit0:80 ~width:16 dst_port

let queue_for t ~src_ip ~dst_ip ~src_port ~dst_port =
  let h = hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port in
  t.indirection.(h land (Array.length t.indirection - 1))

let[@hot_path] queue_of_frame t (f : Net.Frame.t) =
  queue_for t ~src_ip:f.Net.Frame.ip.Net.Ipv4.src
    ~dst_ip:f.Net.Frame.ip.Net.Ipv4.dst
    ~src_port:f.Net.Frame.udp.Net.Udp.src_port
    ~dst_port:f.Net.Frame.udp.Net.Udp.dst_port
