type endpoint = { mac : Mac_addr.t; ip : Ip_addr.t; port : int }

type view = {
  eth : Ethernet.t;
  ip : Ipv4.t;
  udp : Udp.t;
  payload : Slice.t;
}

(* Defined after [view] so unannotated field accesses default to the
   owning frame type. *)
type t = {
  eth : Ethernet.t;
  ip : Ipv4.t;
  udp : Udp.t;
  payload : bytes;
}

let make ~src ~dst payload : t =
  let payload_len = Bytes.length payload in
  {
    eth =
      {
        Ethernet.dst = dst.mac;
        src = src.mac;
        ethertype = Ethernet.ethertype_ipv4;
      };
    ip =
      {
        Ipv4.dscp = 0;
        identification = 0;
        ttl = 64;
        protocol = Ipv4.protocol_udp;
        src = src.ip;
        dst = dst.ip;
        payload_len = Udp.header_size + payload_len;
      };
    udp = { Udp.src_port = src.port; dst_port = dst.port; payload_len };
    payload;
  }

let unpadded_size (t : t) =
  Ethernet.header_size + Ipv4.header_size + Udp.header_size
  + Bytes.length t.payload

let wire_size t = max Ethernet.min_frame_size (unpadded_size t)

(* Serialize into a caller-owned (typically pooled) buffer. The buffer
   may be larger than the frame and its contents are arbitrary — the
   minimum-size padding is therefore written explicitly rather than
   assumed pre-zeroed. *)
let[@hot_path] encode_into (t : t) buf =
  let size = wire_size t in
  if Bytes.length buf < size then
    invalid_arg "Frame.encode_into: buffer smaller than wire size";
  let w = Buf.writer_over buf in
  Ethernet.write w t.eth;
  Ipv4.write w t.ip;
  Udp.write_slice w t.udp ~src_ip:t.ip.Ipv4.src ~dst_ip:t.ip.Ipv4.dst
    ~payload:(Slice.of_bytes t.payload);
  let pad = size - Buf.writer_pos w in
  if pad > 0 then Buf.write_zeros w pad;
  Buf.written_slice w

let encode t =
  let buf = Bytes.create (wire_size t) in
  let (_ : Slice.t) = encode_into t buf in
  buf

type error =
  | Runt
  | Not_ipv4 of int
  | Not_udp of int
  | Ip_error of Ipv4.error
  | Udp_error of Udp.error

let[@hot_path] parse_slice s =
  if Slice.length s < Ethernet.header_size then Error Runt
  else
    let r = Buf.reader_of_slice s in
    let eth = Ethernet.read r in
    if not (Int.equal eth.Ethernet.ethertype Ethernet.ethertype_ipv4) then
      Error (Not_ipv4 eth.Ethernet.ethertype)
    else
      match Ipv4.read r with
      | Error e -> Error (Ip_error e)
      | Ok ip ->
          if not (Int.equal ip.Ipv4.protocol Ipv4.protocol_udp) then
            Error (Not_udp ip.Ipv4.protocol)
          else
            (* Restrict the view to the IP payload so Ethernet padding is
               not mistaken for UDP data. *)
            let sub = Buf.narrow r ~len:ip.Ipv4.payload_len in
            (match
               Udp.read_slice sub ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst
             with
            | Error e -> Error (Udp_error e)
            | Ok (udp, payload) ->
                (Ok ({ eth; ip; udp; payload } : view) [@alloc_ok]))

let of_view (v : view) : t =
  { eth = v.eth; ip = v.ip; udp = v.udp; payload = Slice.to_bytes v.payload }

let parse b =
  match parse_slice (Slice.of_bytes b) with
  | Error _ as e -> e
  | Ok v -> Ok (of_view v)

let src_endpoint (t : t) =
  { mac = t.eth.Ethernet.src; ip = t.ip.Ipv4.src; port = t.udp.Udp.src_port }

let dst_endpoint (t : t) =
  { mac = t.eth.Ethernet.dst; ip = t.ip.Ipv4.dst; port = t.udp.Udp.dst_port }

let view_src_endpoint (v : view) =
  { mac = v.eth.Ethernet.src; ip = v.ip.Ipv4.src; port = v.udp.Udp.src_port }

let view_dst_endpoint (v : view) =
  { mac = v.eth.Ethernet.dst; ip = v.ip.Ipv4.dst; port = v.udp.Udp.dst_port }

let pp_error ppf = function
  | Runt ->
      Format.pp_print_string ppf "runt frame (shorter than the Ethernet header)"
  | Not_ipv4 et -> Format.fprintf ppf "not IPv4 (ethertype 0x%04x)" et
  | Not_udp p -> Format.fprintf ppf "not UDP (protocol %d)" p
  | Ip_error e -> Ipv4.pp_error ppf e
  | Udp_error e -> Udp.pp_error ppf e
