(* Classic libpcap, nanosecond-resolution variant, little-endian. *)

let magic_ns = 0xa1b23c4d
let linktype_ethernet = 1

(* Stored frame bytes are truncated to this, as in real captures. *)
let snaplen = 65535

(* Records only; the header is prepended at [to_bytes]. *)
type t = { buf : Buffer.t }

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let add_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let create () = { buf = Buffer.create 4096 }

let add_frame t ~time frame =
  let bytes = Net.Frame.encode frame in
  let orig_len = Bytes.length bytes in
  let incl_len = min orig_len snaplen in
  add_u32 t.buf (time / 1_000_000_000);
  add_u32 t.buf (time mod 1_000_000_000);
  add_u32 t.buf incl_len;
  add_u32 t.buf orig_len;
  Buffer.add_subbytes t.buf bytes 0 incl_len

let to_bytes t =
  let header = Buffer.create 24 in
  add_u32 header magic_ns;
  add_u16 header 2;
  (* major *)
  add_u16 header 4;
  (* minor *)
  add_u32 header 0;
  (* thiszone *)
  add_u32 header 0;
  (* sigfigs *)
  add_u32 header snaplen;
  add_u32 header linktype_ethernet;
  Buffer.add_buffer header t.buf;
  Buffer.to_bytes header

let write_file t ~file =
  let oc = open_out_bin file in
  output_bytes oc (to_bytes t);
  close_out oc

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let records b =
  let len = Bytes.length b in
  if len < 24 then Error "pcap: truncated global header"
  else if get_u32 b 0 <> magic_ns then
    Error (Printf.sprintf "pcap: bad magic 0x%08x" (get_u32 b 0))
  else if get_u32 b 20 <> linktype_ethernet then
    Error (Printf.sprintf "pcap: unexpected linktype %d" (get_u32 b 20))
  else begin
    let rec loop off acc =
      if off = len then Ok (List.rev acc)
      else if off + 16 > len then Error "pcap: truncated record header"
      else begin
        let sec = get_u32 b off in
        let nsec = get_u32 b (off + 4) in
        let incl_len = get_u32 b (off + 8) in
        if off + 16 + incl_len > len then Error "pcap: truncated record body"
        else
          let time = (sec * 1_000_000_000) + nsec in
          let slice = Net.Slice.make b ~off:(off + 16) ~len:incl_len in
          loop (off + 16 + incl_len) ((time, slice) :: acc)
      end
    in
    loop 24 []
  end
