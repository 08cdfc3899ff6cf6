type kind = Request | Response | Error_reply of int

type header = {
  kind : kind;
  rpc_id : int;
  service_id : int;
  method_id : int;
  ctx : bytes option;
}

type t = {
  rpc_id : int;
  service_id : int;
  method_id : int;
  kind : kind;
  ctx : bytes option;
  body : bytes;
}

let magic = 0x4c42 (* "LB" *)
let version = 1
let header_size = 20
let ctx_size = 16

(* The trace-context extension rides a flag bit on the kind-tag byte:
   when set, [ctx_size] opaque bytes sit between the fixed header and
   the body. A message without a context encodes byte-for-byte as it
   did before the extension existed. *)
let ctx_flag = 0x80

(* Transport-level NACK codes (carried in an Error_reply). Codes below
   0xff00 stay free for application errors. *)
let err_shed = 0xff01
let err_dead = 0xff02
let retriable_error = function
  | c when Int.equal c err_shed || Int.equal c err_dead -> true
  | _ -> false

let kind_tag = function Request -> 0 | Response -> 1 | Error_reply _ -> 2
let err_code = function Error_reply c -> c | Request | Response -> 0

(* The fixed header, in order: magic u16, version u8, kind tag u8 (with
   [ctx_flag]), error code u16, method u16, service u32, rpc id u64.
   [write_header_into] writes it and the readers below read it at these
   offsets; [peek] and [decode] are built on the readers. *)
let off_version = 2
let off_tag = 3
let off_code = 4
let off_method = 6
let off_service = 8
let off_rpc_id = 12

let header_room = function
  | None -> header_size
  | Some c ->
      if not (Int.equal (Bytes.length c) ctx_size) then
        invalid_arg "Wire_format.encode: context must be ctx_size bytes";
      header_size + ctx_size

(* The range checks and their messages are those of the cursor writer
   the header was once written through ([write_u16], [write_u32]), so
   an out-of-range field raises what it always raised. *)
let[@hot_path] set_u16 b off v =
  if v < 0 || v > 0xffff then invalid_arg "Buf.write_u16: value out of range";
  Bytes.set_uint16_be b off v

let[@hot_path] set_u32 b off v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg "Buf.write_u32: value out of range";
  Bytes.set_int32_be b off (Int32.of_int v)

let[@hot_path] write_header_into ~kind ?ctx ~rpc_id ~service_id ~method_id b =
  if Bytes.length b < header_room ctx then
    invalid_arg "Wire_format.write_header_into: no room for the header";
  if rpc_id < 0 then invalid_arg "Wire_format.write_header_into: negative rpc id";
  Bytes.set_uint16_be b 0 magic;
  Bytes.set_uint8 b off_version version;
  Bytes.set_uint8 b off_tag
    (kind_tag kind lor match ctx with Some _ -> ctx_flag | None -> 0);
  set_u16 b off_code (err_code kind);
  set_u16 b off_method method_id;
  set_u32 b off_service service_id;
  Bytes.set_int64_be b off_rpc_id (Int64.of_int rpc_id);
  match ctx with None -> () | Some c -> Bytes.blit c 0 b header_size ctx_size

let encode_body ~kind ?ctx ~rpc_id ~service_id ~method_id body =
  let room = header_room ctx in
  let b = Bytes.create (room + Bytes.length body) in
  write_header_into ~kind ?ctx ~rpc_id ~service_id ~method_id b;
  Bytes.blit body 0 b room (Bytes.length body);
  b

let encode t =
  encode_body ~kind:t.kind ?ctx:t.ctx ~rpc_id:t.rpc_id
    ~service_id:t.service_id ~method_id:t.method_id t.body

let encode_value ~kind ?ctx ~rpc_id ~service_id ~method_id v =
  let b = Codec.encode_at (header_room ctx) v in
  write_header_into ~kind ?ctx ~rpc_id ~service_id ~method_id b;
  b

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_kind of int
  | Bad_rpc_id

(* Every reader reads a message at [b[off, off+len)] and is total: on a
   range shorter than the header it answers a zero rather than raising,
   and it reads no byte outside the range. [check_sub] is defined over
   them, and the whole-buffer readers below read through them at offset
   0 over the whole buffer. *)
let[@hot_path] has_header len = len >= header_size

(* The id is read as the low 63 bits of its u64: exact for every id
   [check_sub] accepts, whose top two bits are clear. *)
let[@hot_path] rpc_id_sub b ~off ~len =
  if has_header len then Int64.to_int (Bytes.get_int64_be b (off + off_rpc_id))
  else 0

let rpc_id_of_int64 id =
  if Int64.compare id 0L < 0 || Int64.compare id (Int64.of_int max_int) > 0
  then invalid_arg "Wire_format.rpc_id_of_int64: outside [0, 2^62)";
  Int64.to_int id

(* The id's top two bits, in its first (most significant) byte. *)
let[@hot_path] id_in_range b ~off =
  Int.equal (Bytes.get_uint8 b (off + off_rpc_id) land 0xc0) 0

let[@hot_path] service_id_sub b ~off ~len =
  if has_header len then
    Int32.to_int (Bytes.get_int32_be b (off + off_service)) land 0xffff_ffff
  else 0

let[@hot_path] method_id_sub b ~off ~len =
  if has_header len then Bytes.get_uint16_be b (off + off_method) else 0

let[@hot_path] tag_sub b ~off ~len =
  if has_header len then Bytes.get_uint8 b (off + off_tag) land lnot ctx_flag
  else 0

let[@hot_path] has_ctx_sub b ~off ~len =
  has_header len && Bytes.get_uint8 b (off + off_tag) land ctx_flag <> 0

let[@hot_path] body_offset_sub b ~off ~len =
  if has_ctx_sub b ~off ~len then header_size + ctx_size else header_size

let[@hot_path] check_sub b ~off ~len =
  if not (has_header len) then Error Truncated
  else begin
    let m = Bytes.get_uint16_be b off in
    let v = Bytes.get_uint8 b (off + off_version) in
    let tag = tag_sub b ~off ~len in
    if not (Int.equal m magic) then Error (Bad_magic m)
    else if not (Int.equal v version) then Error (Bad_version v)
    else if tag > 2 then Error (Bad_kind tag)
    else if has_ctx_sub b ~off ~len && len < header_size + ctx_size then
      Error Truncated
    else if not (id_in_range b ~off) then Error Bad_rpc_id
    else Ok ()
  end

let ctx_sub b ~off ~len =
  if has_ctx_sub b ~off ~len && len >= header_size + ctx_size then
    Some (Bytes.sub b (off + header_size) ctx_size)
  else None

let[@hot_path] rpc_id b = rpc_id_sub b ~off:0 ~len:(Bytes.length b)
let[@hot_path] service_id b = service_id_sub b ~off:0 ~len:(Bytes.length b)
let[@hot_path] method_id b = method_id_sub b ~off:0 ~len:(Bytes.length b)
let[@hot_path] tag b = tag_sub b ~off:0 ~len:(Bytes.length b)
let[@hot_path] is_request b = Int.equal (tag b) 0

(* Only an error reply's kind carries a value, so only it allocates. *)
let[@hot_path] kind b =
  match tag b with
  | 0 -> Request
  | 1 -> Response
  | _ ->
      (Error_reply
         (if has_header (Bytes.length b) then Bytes.get_uint16_be b off_code
          else 0)
      [@alloc_ok])

let[@hot_path] body_offset b = body_offset_sub b ~off:0 ~len:(Bytes.length b)
let[@hot_path] check b = check_sub b ~off:0 ~len:(Bytes.length b)
let ctx b = ctx_sub b ~off:0 ~len:(Bytes.length b)

let peek b =
  match check b with
  | Error e -> Error e
  | Ok () ->
      Ok
        ({
           kind = kind b;
           rpc_id = rpc_id b;
           service_id = service_id b;
           method_id = method_id b;
           ctx = ctx b;
         }
          : header)

let decode b =
  match check b with
  | Error e -> Error e
  | Ok () ->
      let off = body_offset b in
      Ok
        {
          rpc_id = rpc_id b;
          service_id = service_id b;
          method_id = method_id b;
          kind = kind b;
          ctx = ctx b;
          body = Bytes.sub b off (Bytes.length b - off);
        }

let request ?ctx ~rpc_id ~service_id ~method_id v =
  { rpc_id; service_id; method_id; kind = Request; ctx; body = Codec.encode v }

let response ~of_ v =
  {
    rpc_id = of_.rpc_id;
    service_id = of_.service_id;
    method_id = of_.method_id;
    kind = Response;
    ctx = of_.ctx;
    body = Codec.encode v;
  }

let with_ctx t ctx = { t with ctx }

let pp_kind ppf = function
  | Request -> Format.pp_print_string ppf "request"
  | Response -> Format.pp_print_string ppf "response"
  | Error_reply c -> Format.fprintf ppf "error(%d)" c

let pp ppf t =
  Format.fprintf ppf "rpc %s id=%d svc=%d mth=%d body=%dB"
    (Format.asprintf "%a" pp_kind t.kind)
    t.rpc_id t.service_id t.method_id (Bytes.length t.body)

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated RPC header"
  | Bad_magic m -> Format.fprintf ppf "bad magic 0x%04x" m
  | Bad_version v -> Format.fprintf ppf "bad version %d" v
  | Bad_kind k -> Format.fprintf ppf "bad kind tag %d" k
  | Bad_rpc_id -> Format.pp_print_string ppf "rpc id outside [0, 2^62)"
