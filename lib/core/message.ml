type request = {
  rpc_id : int64;
  service_id : int;
  method_id : int;
  code_ptr : int64;
  data_ptr : int64;
  total_args : int;
  inline_args : Net.Slice.t;
  aux_count : int;
  via_dma : bool;
}

type response = {
  resp_rpc_id : int64;
  status : int;
  total_len : int;
  inline_body : Net.Slice.t;
  resp_aux_count : int;
}

type t =
  | Request of request
  | Kernel_dispatch of request
  | Tryagain
  | Retire

let request_header_bytes = 40
let response_header_bytes = 20

let request_inline_capacity ~line_bytes = line_bytes - request_header_bytes
let response_inline_capacity ~line_bytes = line_bytes - response_header_bytes

let tag_request = 1
let tag_tryagain = 2
let tag_retire = 3
let tag_response = 4
let tag_kernel_dispatch = 5

let flag_via_dma = 0x01

let encode_request_body ~line_bytes ~tag (r : request) =
  let cap = request_inline_capacity ~line_bytes in
  if Net.Slice.length r.inline_args > cap then
    invalid_arg
      (Printf.sprintf "Message.encode: %d inline bytes > capacity %d"
         (Net.Slice.length r.inline_args) cap);
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag;
  Net.Buf.write_u8 w (if r.via_dma then flag_via_dma else 0);
  Net.Buf.write_u16 w r.aux_count;
  Net.Buf.write_u32 w r.service_id;
  Net.Buf.write_u16 w r.method_id;
  Net.Buf.write_u16 w (Net.Slice.length r.inline_args);
  Net.Buf.write_u32 w r.total_args;
  Net.Buf.write_u64 w r.rpc_id;
  Net.Buf.write_u64 w r.code_ptr;
  Net.Buf.write_u64 w r.data_ptr;
  Net.Buf.write_slice w r.inline_args;
  (* Pad the line image to full size without a scratch buffer, then
     hand back the writer's own buffer — the image is exactly one
     allocation. *)
  Net.Buf.write_zeros w (line_bytes - Net.Buf.writer_pos w);
  Net.Buf.filled w

let single_tag_line ~line_bytes tag =
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag;
  Net.Buf.write_zeros w (line_bytes - 1);
  Net.Buf.filled w

let encode ~line_bytes t =
  if line_bytes < request_header_bytes then
    invalid_arg "Message.encode: line too small for header";
  match t with
  | Request r -> encode_request_body ~line_bytes ~tag:tag_request r
  | Kernel_dispatch r ->
      encode_request_body ~line_bytes ~tag:tag_kernel_dispatch r
  | Tryagain -> single_tag_line ~line_bytes tag_tryagain
  | Retire -> single_tag_line ~line_bytes tag_retire

(* The response line header, in order: tag u8, flags u8, status u16,
   inline length u16, aux count u16, total length u32, rpc id u64; the
   inline body follows. [write_response] writes it and the readers
   below read it at these offsets. *)
let off_status = 2
let off_resp_inline_len = 4
let off_resp_aux = 6
let off_total_len = 8
let off_resp_rpc_id = 12

let[@hot_path] write_response ~line_bytes ~rpc_id ~status ~total_len
    ~aux_count body ~off ~len =
  let cap = response_inline_capacity ~line_bytes in
  if len > cap then
    invalid_arg
      (Printf.sprintf
         "Message.write_response: %d inline bytes > capacity %d" len cap);
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag_response;
  Net.Buf.write_u8 w 0;
  Net.Buf.write_u16 w status;
  Net.Buf.write_u16 w len;
  Net.Buf.write_u16 w aux_count;
  Net.Buf.write_u32 w total_len;
  Net.Buf.write_u64 w rpc_id;
  Net.Buf.write_sub w body ~off ~len;
  Net.Buf.write_zeros w (line_bytes - Net.Buf.writer_pos w);
  Net.Buf.filled w

(* The request line header, in order: tag u8, flags u8, aux count u16,
   service u32, method u16, inline length u16, total args u32, rpc id
   u64, code pointer u64, data pointer u64; the inline arguments
   follow. [encode_request_body] writes it and the readers below read
   it at these offsets. *)
let off_flags = 1
let off_aux = 2
let off_service = 4
let off_method = 8
let off_inline_len = 10
let off_total_args = 12
let off_rpc_id = 16
let off_code_ptr = 24
let off_data_ptr = 32

(* The readers are total: a field beyond the end of the line reads as
   zero, and [kind] and [response_ok] say whether the line is whole. *)
let[@hot_path] u8 b off =
  if off < Bytes.length b then Bytes.get_uint8 b off else 0

let[@hot_path] u16 b off =
  if off + 2 <= Bytes.length b then Bytes.get_uint16_be b off else 0

let[@hot_path] u32 b off =
  if off + 4 <= Bytes.length b then
    Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff
  else 0

let[@hot_path] u64 b off =
  if off + 8 <= Bytes.length b then Bytes.get_int64_be b off else 0L

type kind =
  | Request_line
  | Kernel_dispatch_line
  | Tryagain_line
  | Retire_line
  | Bad_line

(* An empty line reads tag 0, which is no tag: [Bad_line]. *)
let[@hot_path] kind b =
  let tag = u8 b 0 in
  if Int.equal tag tag_request || Int.equal tag tag_kernel_dispatch then
    if request_header_bytes + u16 b off_inline_len > Bytes.length b then
      Bad_line
    else if Int.equal tag tag_request then Request_line
    else Kernel_dispatch_line
  else if Int.equal tag tag_tryagain then Tryagain_line
  else if Int.equal tag tag_retire then Retire_line
  else Bad_line

let[@hot_path] request_rpc_id b = u64 b off_rpc_id
let[@hot_path] request_total_args b = u32 b off_total_args
let[@hot_path] request_via_dma b = u8 b off_flags land flag_via_dma <> 0

let request_inline_args b =
  let len = u16 b off_inline_len in
  if request_header_bytes + len <= Bytes.length b then
    Net.Slice.make b ~off:request_header_bytes ~len
  else Net.Slice.empty

let[@hot_path] response_ok b =
  Int.equal (u8 b 0) tag_response
  && response_header_bytes + u16 b off_resp_inline_len <= Bytes.length b

let[@hot_path] response_rpc_id b = u64 b off_resp_rpc_id
let[@hot_path] response_status b = u16 b off_status
let[@hot_path] response_total_len b = u32 b off_total_len
let[@hot_path] response_inline_len b = u16 b off_resp_inline_len
let[@hot_path] response_aux_count b = u16 b off_resp_aux

let response_inline_body b =
  let len = response_inline_len b in
  if response_header_bytes + len <= Bytes.length b then
    Net.Slice.make b ~off:response_header_bytes ~len
  else Net.Slice.empty

let[@hot_path] rec same_prefix line body i len =
  i >= len
  || Char.equal
       (Bytes.get line (response_header_bytes + i))
       (Bytes.get body i)
     && same_prefix line body (i + 1) len

let[@hot_path] response_inline_is_prefix_of b body =
  let len = response_inline_len b in
  response_header_bytes + len <= Bytes.length b
  && len <= Bytes.length body
  && same_prefix b body 0 len

let decode_request b =
  {
    rpc_id = request_rpc_id b;
    service_id = u32 b off_service;
    method_id = u16 b off_method;
    code_ptr = u64 b off_code_ptr;
    data_ptr = u64 b off_data_ptr;
    total_args = request_total_args b;
    inline_args = request_inline_args b;
    aux_count = u16 b off_aux;
    via_dma = request_via_dma b;
  }

let truncated b =
  Error (Printf.sprintf "truncated line: %d bytes" (Bytes.length b))

let decode b =
  match kind b with
  | Request_line -> Ok (Request (decode_request b))
  | Kernel_dispatch_line -> Ok (Kernel_dispatch (decode_request b))
  | Tryagain_line -> Ok Tryagain
  | Retire_line -> Ok Retire
  | Bad_line ->
      let tag = u8 b 0 in
      if
        Bytes.length b < 1
        || Int.equal tag tag_request || Int.equal tag tag_kernel_dispatch
      then truncated b
      else Error (Printf.sprintf "unknown control-line tag %d" tag)

let decode_response b =
  if response_ok b then
    Ok
      {
        resp_rpc_id = response_rpc_id b;
        status = response_status b;
        total_len = response_total_len b;
        inline_body = response_inline_body b;
        resp_aux_count = response_aux_count b;
      }
  else if Bytes.length b >= 1 && not (Int.equal (u8 b 0) tag_response) then
    Error (Printf.sprintf "not a response line (tag %d)" (u8 b 0))
  else truncated b

let equal_request (a : request) (b : request) =
  Int64.equal a.rpc_id b.rpc_id
  && Int.equal a.service_id b.service_id
  && Int.equal a.method_id b.method_id
  && Int64.equal a.code_ptr b.code_ptr
  && Int64.equal a.data_ptr b.data_ptr
  && Int.equal a.total_args b.total_args
  && Net.Slice.equal a.inline_args b.inline_args
  && Int.equal a.aux_count b.aux_count
  && Bool.equal a.via_dma b.via_dma

let equal_response (a : response) (b : response) =
  Int64.equal a.resp_rpc_id b.resp_rpc_id
  && Int.equal a.status b.status
  && Int.equal a.total_len b.total_len
  && Net.Slice.equal a.inline_body b.inline_body
  && Int.equal a.resp_aux_count b.resp_aux_count

let equal a b =
  match (a, b) with
  | Request x, Request y | Kernel_dispatch x, Kernel_dispatch y ->
      equal_request x y
  | Tryagain, Tryagain | Retire, Retire -> true
  | (Request _ | Kernel_dispatch _ | Tryagain | Retire), _ -> false

let pp ppf = function
  | Request r ->
      Format.fprintf ppf
        "request id=%Ld svc=%d mth=%d code=0x%Lx args=%d/%d aux=%d%s"
        r.rpc_id r.service_id r.method_id r.code_ptr
        (Net.Slice.length r.inline_args)
        r.total_args r.aux_count
        (if r.via_dma then " via-dma" else "")
  | Kernel_dispatch r ->
      Format.fprintf ppf "kernel-dispatch svc=%d id=%Ld" r.service_id
        r.rpc_id
  | Tryagain -> Format.pp_print_string ppf "tryagain"
  | Retire -> Format.pp_print_string ppf "retire"
