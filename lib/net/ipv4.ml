type t = {
  dscp : int;
  identification : int;
  ttl : int;
  protocol : int;
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload_len : int;
}

let header_size = 20
let protocol_udp = 17

type error =
  | Truncated
  | Bad_version of int
  | Options_unsupported of int
  | Bad_checksum
  | Bad_length of int

let write w t =
  let start = Buf.writer_pos w in
  Buf.write_u8 w 0x45 (* version 4, IHL 5 *);
  Buf.write_u8 w (t.dscp lsl 2);
  Buf.write_u16 w (header_size + t.payload_len);
  Buf.write_u16 w t.identification;
  Buf.write_u16 w 0x4000 (* flags: don't-fragment; offset 0 *);
  Buf.write_u8 w t.ttl;
  Buf.write_u8 w t.protocol;
  let checksum_pos = Buf.writer_pos w in
  Buf.write_u16 w 0;
  Ip_addr.write w t.src;
  Ip_addr.write w t.dst;
  let csum =
    Checksum.compute (Buf.writer_bytes w) ~pos:start ~len:header_size
  in
  Buf.patch_u16 w ~pos:checksum_pos csum

let read r =
  if Buf.remaining r < header_size then Error Truncated
  else begin
    (* Validate the checksum in place on the raw header bytes before
       decoding — no header copy. *)
    let base = Buf.reader_bytes r in
    let start = Buf.reader_pos r in
    let vi = Buf.read_u8 r in
    let version = vi lsr 4 and ihl = vi land 0xf in
    if version <> 4 then Error (Bad_version version)
    else if ihl <> 5 then Error (Options_unsupported ihl)
    else if not (Checksum.verify base ~pos:start ~len:header_size) then
      Error Bad_checksum
    else begin
      let dscp = Buf.read_u8 r lsr 2 in
      let total_len = Buf.read_u16 r in
      let identification = Buf.read_u16 r in
      let _flags_frag = Buf.read_u16 r in
      let ttl = Buf.read_u8 r in
      let protocol = Buf.read_u8 r in
      let _csum = Buf.read_u16 r in
      let src = Ip_addr.read r in
      let dst = Ip_addr.read r in
      let payload_len = total_len - header_size in
      if payload_len < 0 || payload_len > Buf.remaining r then
        Error (Bad_length total_len)
      else
        Ok { dscp; identification; ttl; protocol; src; dst; payload_len }
    end
  end

let pp ppf t =
  Format.fprintf ppf "ipv4 %a -> %a proto=%d len=%d ttl=%d" Ip_addr.pp t.src
    Ip_addr.pp t.dst t.protocol t.payload_len t.ttl

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated IPv4 header"
  | Bad_version v -> Format.fprintf ppf "bad IP version %d" v
  | Options_unsupported ihl -> Format.fprintf ppf "IP options (ihl=%d)" ihl
  | Bad_checksum -> Format.pp_print_string ppf "bad IPv4 header checksum"
  | Bad_length l -> Format.fprintf ppf "inconsistent total_length %d" l
