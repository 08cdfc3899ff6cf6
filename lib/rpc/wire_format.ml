type kind = Request | Response | Error_reply of int

type header = {
  kind : kind;
  rpc_id : int64;
  service_id : int;
  method_id : int;
  ctx : bytes option;
}

type t = {
  rpc_id : int64;
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
  | c when c = err_shed || c = err_dead -> true
  | _ -> false

let kind_tag = function Request -> 0 | Response -> 1 | Error_reply _ -> 2
let is_request t = match t.kind with Request -> true | Response | Error_reply _ -> false
let err_code = function Error_reply c -> c | Request | Response -> 0

let encode t =
  let ctx_len =
    match t.ctx with
    | None -> 0
    | Some c ->
        if Bytes.length c <> ctx_size then
          invalid_arg "Wire_format.encode: context must be ctx_size bytes";
        ctx_size
  in
  let w = Net.Buf.writer (header_size + ctx_len + Bytes.length t.body) in
  Net.Buf.write_u16 w magic;
  Net.Buf.write_u8 w version;
  Net.Buf.write_u8 w
    (kind_tag t.kind lor match t.ctx with Some _ -> ctx_flag | None -> 0);
  Net.Buf.write_u16 w (err_code t.kind);
  Net.Buf.write_u16 w t.method_id;
  Net.Buf.write_u32 w t.service_id;
  Net.Buf.write_u64 w t.rpc_id;
  (match t.ctx with None -> () | Some c -> Net.Buf.write_bytes w c);
  Net.Buf.write_bytes w t.body;
  Net.Buf.filled w

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_kind of int

let peek b =
  if Bytes.length b < header_size then Error Truncated
  else begin
    let r = Net.Buf.reader b in
    let m = Net.Buf.read_u16 r in
    if m <> magic then Error (Bad_magic m)
    else begin
      let v = Net.Buf.read_u8 r in
      if v <> version then Error (Bad_version v)
      else begin
        let tag_byte = Net.Buf.read_u8 r in
        let has_ctx = tag_byte land ctx_flag <> 0 in
        let tag = tag_byte land lnot ctx_flag in
        let code = Net.Buf.read_u16 r in
        let method_id = Net.Buf.read_u16 r in
        let service_id = Net.Buf.read_u32 r in
        let rpc_id = Net.Buf.read_u64 r in
        let kind =
          match tag with
          | 0 -> Some Request
          | 1 -> Some Response
          | 2 -> Some (Error_reply code)
          | _ -> None
        in
        match kind with
        | None -> Error (Bad_kind tag)
        | Some kind ->
            if has_ctx && Net.Buf.remaining r < ctx_size then Error Truncated
            else
              let ctx =
                if has_ctx then Some (Net.Buf.read_bytes r ~len:ctx_size)
                else None
              in
              Ok ({ kind; rpc_id; service_id; method_id; ctx } : header)
      end
    end
  end

let body_offset (h : header) =
  header_size + match h.ctx with Some _ -> ctx_size | None -> 0

let decode b =
  match peek b with
  | Error _ as e -> e
  | Ok (h : header) ->
      let off = body_offset h in
      Ok
        {
          rpc_id = h.rpc_id;
          service_id = h.service_id;
          method_id = h.method_id;
          kind = h.kind;
          ctx = h.ctx;
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
  Format.fprintf ppf "rpc %s id=%Ld svc=%d mth=%d body=%dB"
    (Format.asprintf "%a" pp_kind t.kind)
    t.rpc_id t.service_id t.method_id (Bytes.length t.body)

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated RPC header"
  | Bad_magic m -> Format.fprintf ppf "bad magic 0x%04x" m
  | Bad_version v -> Format.fprintf ppf "bad version %d" v
  | Bad_kind k -> Format.fprintf ppf "bad kind tag %d" k
