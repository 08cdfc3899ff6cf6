type request = {
  rpc_id : int;
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
  resp_rpc_id : int;
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

(* The request line header, in order: tag u8, flags u8, aux count u16,
   service u32, method u16, inline length u16, total args u32, rpc id
   u64, code pointer u64, data pointer u64; the inline arguments
   follow. *)
let off_flags = 1
let off_aux = 2
let off_service = 4
let off_method = 8
let off_inline_len = 10
let off_total_args = 12
let off_rpc_id = 16
let off_code_ptr = 24
let off_data_ptr = 32

(* The response line header, in order: tag u8, flags u8, status u16,
   inline length u16, aux count u16, total length u32, rpc id u64; the
   inline body follows. *)
let off_status = 2
let off_resp_inline_len = 4
let off_resp_aux = 6
let off_total_len = 8
let off_resp_rpc_id = 12

(* The writers below and the readers after them place each field at
   these offsets. A writer checks each value's range and writes the
   whole line: the inline bytes, then zeros
   to the end, so a reused line keeps nothing of what it held. *)
let[@hot_path] set_u8 b off v =
  if v < 0 || v > 0xff then invalid_arg "Message: u8 field out of range";
  Bytes.set_uint8 b off v

let[@hot_path] set_u16 b off v =
  if v < 0 || v > 0xffff then invalid_arg "Message: u16 field out of range";
  Bytes.set_uint16_be b off v

let[@hot_path] set_u32 b off v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg "Message: u32 field out of range";
  Bytes.set_int32_be b off (Int32.of_int v)

let[@hot_path] zero_from b off = Bytes.fill b off (Bytes.length b - off) '\000'

let[@hot_path] write_request_into line ~kernel_dispatch ~rpc_id ~service_id
    ~method_id ~code_ptr ~data_ptr ~total_args ~aux_count ~via_dma args ~off
    ~len =
  let cap = request_inline_capacity ~line_bytes:(Bytes.length line) in
  if len > cap then
    invalid_arg
      (Printf.sprintf "Message.encode: %d inline bytes > capacity %d" len cap);
  if off < 0 || len < 0 || off + len > Bytes.length args then
    invalid_arg "Message.write_request: range outside the arguments";
  set_u8 line 0 (if kernel_dispatch then tag_kernel_dispatch else tag_request);
  set_u8 line off_flags (if via_dma then flag_via_dma else 0);
  set_u16 line off_aux aux_count;
  set_u32 line off_service service_id;
  set_u16 line off_method method_id;
  set_u16 line off_inline_len len;
  set_u32 line off_total_args total_args;
  Bytes.set_int64_be line off_rpc_id (Int64.of_int rpc_id);
  Bytes.set_int64_be line off_code_ptr code_ptr;
  Bytes.set_int64_be line off_data_ptr data_ptr;
  Bytes.blit args off line request_header_bytes len;
  zero_from line (request_header_bytes + len)

let encode_request_into line ~kernel_dispatch (r : request) =
  let a = r.inline_args in
  write_request_into line ~kernel_dispatch ~rpc_id:r.rpc_id
    ~service_id:r.service_id ~method_id:r.method_id ~code_ptr:r.code_ptr
    ~data_ptr:r.data_ptr ~total_args:r.total_args ~aux_count:r.aux_count
    ~via_dma:r.via_dma a.Net.Slice.base ~off:a.Net.Slice.off
    ~len:a.Net.Slice.len

let encode ~line_bytes t =
  if line_bytes < request_header_bytes then
    invalid_arg "Message.encode: line too small for header";
  let line = Bytes.create line_bytes in
  (match t with
  | Request r -> encode_request_into line ~kernel_dispatch:false r
  | Kernel_dispatch r -> encode_request_into line ~kernel_dispatch:true r
  | Tryagain ->
      zero_from line 0;
      set_u8 line 0 tag_tryagain
  | Retire ->
      zero_from line 0;
      set_u8 line 0 tag_retire);
  line

let[@hot_path] write_response_into line ~rpc_id ~status ~total_len ~aux_count
    body ~off ~len =
  let cap = response_inline_capacity ~line_bytes:(Bytes.length line) in
  if len > cap then
    invalid_arg
      (Printf.sprintf
         "Message.write_response: %d inline bytes > capacity %d" len cap);
  if off < 0 || len < 0 || off + len > Bytes.length body then
    invalid_arg "Message.write_response: range outside the body";
  set_u8 line 0 tag_response;
  set_u8 line 1 0;
  set_u16 line off_status status;
  set_u16 line off_resp_inline_len len;
  set_u16 line off_resp_aux aux_count;
  set_u32 line off_total_len total_len;
  Bytes.set_int64_be line off_resp_rpc_id (Int64.of_int rpc_id);
  Bytes.blit body off line response_header_bytes len;
  zero_from line (response_header_bytes + len)

let write_response ~line_bytes ~rpc_id ~status ~total_len ~aux_count body
    ~off ~len =
  let line = Bytes.create line_bytes in
  write_response_into line ~rpc_id ~status ~total_len ~aux_count body ~off
    ~len;
  line

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

(* An id field: the u64 an [int] id was written as, read back whole
   without boxing. *)
let[@hot_path] id b off =
  if off + 8 <= Bytes.length b then Int64.to_int (Bytes.get_int64_be b off)
  else 0

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

let[@hot_path] request_rpc_id b = id b off_rpc_id
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

let[@hot_path] response_rpc_id b = id b off_resp_rpc_id
let[@hot_path] response_status b = u16 b off_status
let[@hot_path] response_total_len b = u32 b off_total_len
let[@hot_path] response_inline_len b = u16 b off_resp_inline_len
let[@hot_path] response_aux_count b = u16 b off_resp_aux

let response_inline_body b =
  let len = response_inline_len b in
  if response_header_bytes + len <= Bytes.length b then
    Net.Slice.make b ~off:response_header_bytes ~len
  else Net.Slice.empty

let[@hot_path] rec same_prefix line body off i len =
  i >= len
  || Char.equal
       (Bytes.get line (response_header_bytes + i))
       (Bytes.get body (off + i))
     && same_prefix line body off (i + 1) len

let[@hot_path] response_inline_is_prefix_of b body ~off =
  let len = response_inline_len b in
  response_header_bytes + len <= Bytes.length b
  && off >= 0
  && off + len <= Bytes.length body
  && same_prefix b body off 0 len

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
  Int.equal a.rpc_id b.rpc_id
  && Int.equal a.service_id b.service_id
  && Int.equal a.method_id b.method_id
  && Int64.equal a.code_ptr b.code_ptr
  && Int64.equal a.data_ptr b.data_ptr
  && Int.equal a.total_args b.total_args
  && Net.Slice.equal a.inline_args b.inline_args
  && Int.equal a.aux_count b.aux_count
  && Bool.equal a.via_dma b.via_dma

let equal_response (a : response) (b : response) =
  Int.equal a.resp_rpc_id b.resp_rpc_id
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
        "request id=%d svc=%d mth=%d code=0x%Lx args=%d/%d aux=%d%s"
        r.rpc_id r.service_id r.method_id r.code_ptr
        (Net.Slice.length r.inline_args)
        r.total_args r.aux_count
        (if r.via_dma then " via-dma" else "")
  | Kernel_dispatch r ->
      Format.fprintf ppf "kernel-dispatch svc=%d id=%d" r.service_id
        r.rpc_id
  | Tryagain -> Format.pp_print_string ppf "tryagain"
  | Retire -> Format.pp_print_string ppf "retire"
