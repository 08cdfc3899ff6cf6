(* Packet walkthrough: follow one small RPC through every layer the
   repository implements — wire bytes, Ethernet/IPv4/UDP parsing with
   checksum verification, the RPC header, schema-directed unmarshal,
   the NIC pipeline cost model, and the CONTROL cache line the NIC
   would stage (Figure 4).

   Run with: dune exec examples/packet_walkthrough.exe *)

let hex_dump ?(width = 16) b =
  let n = Bytes.length b in
  let rec lines off =
    if off < n then begin
      let len = min width (n - off) in
      let hex =
        String.concat " "
          (List.init len (fun i ->
               Printf.sprintf "%02x" (Char.code (Bytes.get b (off + i)))))
      in
      let ascii =
        String.init len (fun i ->
            let c = Bytes.get b (off + i) in
            if Char.code c >= 32 && Char.code c < 127 then c else '.')
      in
      Format.printf "    %04x  %-47s  %s@." off hex ascii;
      lines (off + width)
    end
  in
  lines 0

let () =
  Format.printf "=== 1. Build the request ===@.";
  let args =
    Rpc.Value.Tuple
      [ Rpc.Value.str "user:42"; Rpc.Value.Blob (Bytes.of_string "payload") ]
  in
  Format.printf "  arguments: %a@." Rpc.Value.pp args;
  Format.printf "  encoded body: %d bytes, %d leaf fields@."
    (Rpc.Codec.encoded_size args)
    (Rpc.Value.field_count args);
  let frame =
    Harness.Traffic.request_frame ~rpc_id:7L ~service_id:2 ~method_id:0
      ~port:7002 ~client:(Harness.Traffic.client_endpoint ()) args
  in
  let wire_bytes = Net.Frame.encode frame in
  Format.printf "  wire frame (%d bytes incl. Ethernet minimum padding):@."
    (Bytes.length wire_bytes);
  hex_dump wire_bytes;

  Format.printf "@.=== 2. Parse it back, layer by layer ===@.";
  (match Net.Frame.parse_slice (Net.Slice.of_bytes wire_bytes) with
  | Error e -> Format.printf "  frame error: %a@." Net.Frame.pp_error e
  | Ok v -> (
      let src = v.Net.Frame.src and dst = v.Net.Frame.dst in
      Format.printf "  eth %a -> %a type=0x%04x@." Net.Mac_addr.pp
        src.Net.Frame.mac Net.Mac_addr.pp dst.Net.Frame.mac
        Net.Ethernet.ethertype_ipv4;
      Format.printf
        "  ipv4 %a -> %a proto=%d len=%d ttl=64  (header checksum verified)@."
        Net.Ip_addr.pp src.Net.Frame.ip Net.Ip_addr.pp dst.Net.Frame.ip
        Net.Ipv4.protocol_udp
        (Net.Udp.header_size + Net.Slice.length v.Net.Frame.payload);
      Format.printf "  udp %d -> %d len=%d  (pseudo-header checksum verified)@."
        src.Net.Frame.port dst.Net.Frame.port
        (Net.Slice.length v.Net.Frame.payload);
      match Rpc.Wire_format.decode (Net.Slice.to_bytes v.Net.Frame.payload) with
      | Error e -> Format.printf "  rpc error: %a@." Rpc.Wire_format.pp_error e
      | Ok msg -> (
          Format.printf "  %a@." Rpc.Wire_format.pp msg;
          let schema = Rpc.Schema.Tuple [ Rpc.Schema.Str; Rpc.Schema.Blob ] in
          match Rpc.Codec.decode schema msg.Rpc.Wire_format.body with
          | Ok v -> Format.printf "  unmarshaled: %a@." Rpc.Value.pp v
          | Error e -> Format.printf "  codec error: %a@." Rpc.Codec.pp_error e)));

  Format.printf "@.=== 3. What corruption does ===@.";
  let corrupted = Bytes.copy wire_bytes in
  Bytes.set corrupted 30 '\xff' (* inside the IPv4 header *);
  (match Net.Frame.parse corrupted with
  | Error e -> Format.printf "  flipped header byte -> %a@." Net.Frame.pp_error e
  | Ok _ -> Format.printf "  corruption not detected?!@.");
  let truncated = Bytes.sub wire_bytes 0 20 in
  (match Net.Frame.parse truncated with
  | Error e -> Format.printf "  20-byte truncation -> %a@." Net.Frame.pp_error e
  | Ok _ -> Format.printf "  truncation not detected?!@.");

  Format.printf "@.=== 4. The NIC hardware pipeline (Figure 3) ===@.";
  let cfg = Lauberhorn.Config.enzian in
  let breakdown =
    Lauberhorn.Pipeline.rx cfg ~mirror_lookup:0
      ~fields:(Rpc.Value.field_count args)
      ~arg_bytes:(Rpc.Codec.encoded_size args)
  in
  Format.printf "  %a@." Lauberhorn.Pipeline.pp breakdown;

  Format.printf "@.=== 5. The CONTROL cache line the NIC stages (Figure 4) ===@.";
  let body = Rpc.Codec.encode args in
  let inline_cap = Lauberhorn.Config.inline_capacity cfg in
  let line =
    Lauberhorn.Message.encode
      ~line_bytes:cfg.Lauberhorn.Config.profile.Coherence.Interconnect.cache_line_bytes
      (Lauberhorn.Message.Request
         {
           Lauberhorn.Message.rpc_id = 7;
           service_id = 2;
           method_id = 0;
           code_ptr = 0x4000_2000L;
           data_ptr = 0x7000_0000L;
           total_args = Bytes.length body;
           inline_args =
             Net.Slice.make body ~off:0
               ~len:(min inline_cap (Bytes.length body));
           aux_count = 0;
           via_dma = false;
         })
  in
  Format.printf "  128-byte line image (code ptr + args, ready to jump):@.";
  hex_dump line;
  (match Lauberhorn.Message.decode line with
  | Ok m -> Format.printf "  decodes to: %a@." Lauberhorn.Message.pp m
  | Error e -> Format.printf "  decode error: %s@." e);
  Format.printf
    "@.A stalled load returns this line straight into the waiting core's@.";
  Format.printf
    "registers: arguments plus the address of the first instruction@.";
  Format.printf "of the handler -- section 2's steps 1-11, all on the NIC.@."
