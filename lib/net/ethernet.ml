type t = { dst : Mac_addr.t; src : Mac_addr.t; ethertype : int }

let header_size = 14
let min_frame_size = 60
let ethertype_ipv4 = 0x0800

let write w t =
  Mac_addr.write w t.dst;
  Mac_addr.write w t.src;
  Buf.write_u16 w t.ethertype

let read r =
  let dst = Mac_addr.read r in
  let src = Mac_addr.read r in
  let ethertype = Buf.read_u16 r in
  { dst; src; ethertype }

let pp ppf t =
  Format.fprintf ppf "eth %a -> %a type=0x%04x" Mac_addr.pp t.src Mac_addr.pp
    t.dst t.ethertype
