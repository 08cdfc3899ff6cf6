type endpoint = { mac : Mac_addr.t; ip : Ip_addr.t; port : int }
type view = { src : endpoint; dst : endpoint; payload : Slice.t }

(* Defined after [view] so unannotated field accesses default to the
   owning frame type. *)
type t = { src : endpoint; dst : endpoint; payload : bytes }

let make ~src ~dst payload : t = { src; dst; payload }

let make_to_port ~src ~dst ~port payload : t =
  let dst = if Int.equal dst.port port then dst else { dst with port } in
  { src; dst; payload }

let reply_to ~src ~dst payload : t = { src = dst; dst = src; payload }

let empty =
  let nobody = { mac = Mac_addr.broadcast; ip = Ip_addr.of_int 0; port = 0 } in
  make ~src:nobody ~dst:nobody Bytes.empty

(* Where each header starts, from the start of the frame. The codec
   reads and writes each field at its offset within its header. *)
let ip_off = Ethernet.header_size
let udp_off = ip_off + Ipv4.header_size
let payload_offset = udp_off + Udp.header_size

(* The largest payload whose IPv4 total length fits in 16 bits. *)
let max_payload = 0xffff - Ipv4.header_size - Udp.header_size

let wire_size (t : t) =
  max Ethernet.min_frame_size (payload_offset + Bytes.length t.payload)

let pseudo_header_sum ~src_ip ~dst_ip ~udp_len =
  (src_ip lsr 16) + (src_ip land 0xffff) + (dst_ip lsr 16)
  + (dst_ip land 0xffff) + Ipv4.protocol_udp + udp_len

let[@inline] set_u32 b off v =
  Bytes.set_uint16_be b off (v lsr 16);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let[@inline] get_u32 b off =
  (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let[@inline] set_mac b off m =
  let m = Mac_addr.to_int m in
  Bytes.set_uint16_be b off (m lsr 32);
  set_u32 b (off + 2) (m land 0xffff_ffff)

let[@inline] get_mac b off =
  Mac_addr.of_int ((Bytes.get_uint16_be b off lsl 32) lor get_u32 b (off + 2))

(* Every frame carries the same constants: IPv4 ethertype, version 4
   with IHL 5, DSCP 0, identification 0, don't-fragment, TTL 64 and
   protocol UDP. Both lengths follow from the payload. The buffer may be
   larger than the frame and its contents are arbitrary, so the padding
   to the Ethernet minimum is written explicitly. *)
let[@hot_path] encode_into (t : t) buf =
  let len = Bytes.length t.payload in
  let size = wire_size t in
  if Bytes.length buf < size then
    invalid_arg "Frame.encode_into: buffer smaller than wire size";
  if len > max_payload || t.src.port lsr 16 <> 0 || t.dst.port lsr 16 <> 0
  then invalid_arg "Frame.encode_into: length or port outside 16 bits";
  let src_ip = Ip_addr.to_int t.src.ip and dst_ip = Ip_addr.to_int t.dst.ip in
  set_mac buf 0 t.dst.mac;
  set_mac buf 6 t.src.mac;
  Bytes.set_uint16_be buf 12 Ethernet.ethertype_ipv4;
  Bytes.set_uint16_be buf ip_off 0x4500;
  Bytes.set_uint16_be buf (ip_off + 2)
    (Ipv4.header_size + Udp.header_size + len);
  Bytes.set_uint16_be buf (ip_off + 4) 0;
  Bytes.set_uint16_be buf (ip_off + 6) 0x4000;
  Bytes.set_uint16_be buf (ip_off + 8) ((64 lsl 8) lor Ipv4.protocol_udp);
  Bytes.set_uint16_be buf (ip_off + 10) 0;
  set_u32 buf (ip_off + 12) src_ip;
  set_u32 buf (ip_off + 16) dst_ip;
  Bytes.set_uint16_be buf (ip_off + 10)
    (Checksum.compute buf ~pos:ip_off ~len:Ipv4.header_size);
  let udp_len = Udp.header_size + len in
  Bytes.set_uint16_be buf udp_off t.src.port;
  Bytes.set_uint16_be buf (udp_off + 2) t.dst.port;
  Bytes.set_uint16_be buf (udp_off + 4) udp_len;
  Bytes.set_uint16_be buf (udp_off + 6) 0;
  Bytes.blit t.payload 0 buf payload_offset len;
  let sum =
    Checksum.ones_complement_sum
      ~init:(pseudo_header_sum ~src_ip ~dst_ip ~udp_len)
      buf ~pos:udp_off ~len:udp_len
  in
  (* RFC 768: a transmitted 0 means "no checksum". *)
  let csum = match Checksum.finish sum with 0 -> 0xffff | c -> c in
  Bytes.set_uint16_be buf (udp_off + 6) csum;
  Bytes.fill buf (payload_offset + len) (size - payload_offset - len) '\000';
  size

let encode t =
  let buf = Bytes.create (wire_size t) in
  let (_ : int) = encode_into t buf in
  buf

type error =
  | Runt
  | Not_ipv4 of int
  | Not_udp of int
  | Ip_error of Ipv4.error
  | Udp_error of Udp.error

(* Each check reads its field where it lies, in the order the layers
   nest, and the first that fails names the error. The IP total length
   bounds the UDP segment, so Ethernet padding is never read as UDP
   data. *)
let[@hot_path] check b ~off:o ~len:n =
  if n < Ethernet.header_size then Error Runt
  else
    let ethertype = Bytes.get_uint16_be b (o + 12) in
    if not (Int.equal ethertype Ethernet.ethertype_ipv4) then
      Error (Not_ipv4 ethertype)
    else if n - ip_off < Ipv4.header_size then Error (Ip_error Ipv4.Truncated)
    else
      let ip = o + ip_off in
      let vi = Bytes.get_uint8 b ip in
      if not (Int.equal (vi lsr 4) 4) then
        Error (Ip_error (Ipv4.Bad_version (vi lsr 4)))
      else if not (Int.equal (vi land 0xf) 5) then
        Error (Ip_error (Ipv4.Options_unsupported (vi land 0xf)))
      else if not (Checksum.verify b ~pos:ip ~len:Ipv4.header_size) then
        Error (Ip_error Ipv4.Bad_checksum)
      else
        let total_len = Bytes.get_uint16_be b (ip + 2) in
        let ip_payload = total_len - Ipv4.header_size in
        if ip_payload < 0 || ip_payload > n - udp_off then
          Error (Ip_error (Ipv4.Bad_length total_len))
        else
          let protocol = Bytes.get_uint8 b (ip + 9) in
          if not (Int.equal protocol Ipv4.protocol_udp) then
            Error (Not_udp protocol)
          else if ip_payload < Udp.header_size then
            Error (Udp_error Udp.Truncated)
          else
            let udp = o + udp_off in
            let udp_len = Bytes.get_uint16_be b (udp + 4) in
            if udp_len < Udp.header_size || udp_len > ip_payload then
              Error (Udp_error (Udp.Bad_length udp_len))
            else if
              (* A zero checksum field means "not computed"; otherwise
                 the segment, its checksum included, sums to all-ones. *)
              Bytes.get_uint16_be b (udp + 6) <> 0
              && not
                   (Int.equal
                      (Checksum.ones_complement_sum
                         ~init:
                           (pseudo_header_sum
                              ~src_ip:(get_u32 b (ip + 12))
                              ~dst_ip:(get_u32 b (ip + 16))
                              ~udp_len)
                         b ~pos:udp ~len:udp_len)
                      0xffff)
            then Error (Udp_error Udp.Bad_checksum)
            else Ok ()

(* The readers of a frame [check] accepted, each at its field's fixed
   offset from the frame's start. *)
let[@hot_path] dst_port b ~off = Bytes.get_uint16_be b (off + udp_off + 2)

let[@hot_path] payload_len b ~off =
  Bytes.get_uint16_be b (off + udp_off + 4) - Udp.header_size

let src_endpoint b ~off =
  {
    mac = get_mac b (off + 6);
    ip = Ip_addr.of_int (get_u32 b (off + ip_off + 12));
    port = Bytes.get_uint16_be b (off + udp_off);
  }

let dst_endpoint b ~off =
  {
    mac = get_mac b off;
    ip = Ip_addr.of_int (get_u32 b (off + ip_off + 16));
    port = dst_port b ~off;
  }

let parse_slice (s : Slice.t) =
  let b = s.Slice.base and off = s.Slice.off in
  match check b ~off ~len:s.Slice.len with
  | Error e -> Error e
  | Ok () ->
      Ok
        ({
           src = src_endpoint b ~off;
           dst = dst_endpoint b ~off;
           payload =
             Slice.make b ~off:(off + payload_offset) ~len:(payload_len b ~off);
         }
          : view)

let of_view (v : view) : t =
  { src = v.src; dst = v.dst; payload = Slice.to_bytes v.payload }

let parse b =
  match parse_slice (Slice.of_bytes b) with
  | Error _ as e -> e
  | Ok v -> Ok (of_view v)

let pp_error ppf = function
  | Runt ->
      Format.pp_print_string ppf "runt frame (shorter than the Ethernet header)"
  | Not_ipv4 et -> Format.fprintf ppf "not IPv4 (ethertype 0x%04x)" et
  | Not_udp p -> Format.fprintf ppf "not UDP (protocol %d)" p
  | Ip_error e -> Ipv4.pp_error ppf e
  | Udp_error e -> Udp.pp_error ppf e
