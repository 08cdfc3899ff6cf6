type t = { key : string; indirection : int array }

let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
   \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
   \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let create ?(key = default_key) ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues <= 0";
  if String.length key < 40 then invalid_arg "Rss.create: key shorter than 40B";
  (* 128-entry indirection table, round-robin initialised (the common
     driver default). *)
  let indirection = Array.init 128 (fun i -> i mod queues) in
  { key; indirection }

let key_window key ~bit =
  (* 32-bit window of the key starting at bit offset [bit]. *)
  let byte = bit / 8 and shift = bit mod 8 in
  let b i =
    if byte + i < String.length key then Char.code key.[byte + i] else 0
  in
  let forty =
    Int64.logor
      (Int64.shift_left (Int64.of_int (b 0)) 32)
      (Int64.of_int ((b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4))
  in
  Int64.to_int (Int64.logand (Int64.shift_right_logical forty (8 - shift))
                  0xffff_ffffL)

let toeplitz_hash ~key data =
  let acc = ref 0 in
  for i = 0 to Bytes.length data - 1 do
    let byte = Char.code (Bytes.get data i) in
    for bit = 0 to 7 do
      if byte land (0x80 lsr bit) <> 0 then
        acc := !acc lxor key_window key ~bit:((i * 8) + bit)
    done
  done;
  !acc land 0xffff_ffff

let hash data = toeplitz_hash ~key:default_key data

let hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port =
  let w = Net.Buf.writer 12 in
  Net.Ip_addr.write w src_ip;
  Net.Ip_addr.write w dst_ip;
  Net.Buf.write_u16 w src_port;
  Net.Buf.write_u16 w dst_port;
  toeplitz_hash ~key:t.key (Net.Buf.contents w)

let queue_for t ~src_ip ~dst_ip ~src_port ~dst_port =
  let h = hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port in
  t.indirection.(h land (Array.length t.indirection - 1))

let queue_of_frame t (f : Net.Frame.t) =
  queue_for t ~src_ip:f.Net.Frame.ip.Net.Ipv4.src
    ~dst_ip:f.Net.Frame.ip.Net.Ipv4.dst
    ~src_port:f.Net.Frame.udp.Net.Udp.src_port
    ~dst_port:f.Net.Frame.udp.Net.Udp.dst_port
