type 'sv request = {
  sv : 'sv;
  rpc_id : int;
  service_id : int;
  ctx : bytes option;
  src : Net.Frame.endpoint;
  dst : Net.Frame.endpoint;
  mdef : Rpc.Interface.method_def;
  args : Rpc.Value.t;
  arg_bytes : int;
}

type 'sv t =
  | Bad_rpc
  | Drop of { rpc_id : int; counter : string }
  | Request of 'sv request

let decode by_port service (v : Net.Frame.view) =
  let b = v.payload.Net.Slice.base
  and off = v.payload.Net.Slice.off
  and len = v.payload.Net.Slice.len in
  match Rpc.Wire_format.check_sub b ~off ~len with
  | Error _ -> Bad_rpc
  | Ok () -> (
      let rpc_id = Rpc.Wire_format.rpc_id_sub b ~off ~len in
      match Hashtbl.find by_port v.dst.Net.Frame.port with
      | exception Not_found -> Drop { rpc_id; counter = "rx_no_service" }
      | sv -> (
          match
            Rpc.Interface.method_by_id (service sv)
              (Rpc.Wire_format.method_id_sub b ~off ~len)
          with
          | exception Not_found -> Drop { rpc_id; counter = "rx_no_method" }
          | mdef -> (
              let pos = Rpc.Wire_format.body_offset_sub b ~off ~len in
              let arg_bytes = len - pos in
              match
                Rpc.Codec.decode_sub mdef.Rpc.Interface.request b
                  ~pos:(off + pos) ~len:arg_bytes
              with
              | Error _ -> Drop { rpc_id; counter = "rx_bad_args" }
              | Ok args ->
                  Request
                    {
                      sv;
                      rpc_id;
                      service_id = Rpc.Wire_format.service_id_sub b ~off ~len;
                      ctx = Rpc.Wire_format.ctx_sub b ~off ~len;
                      src = v.src;
                      dst = v.dst;
                      mdef;
                      args;
                      arg_bytes;
                    })))

let reply r result =
  Net.Frame.reply_to ~src:r.src ~dst:r.dst
    (Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Response ?ctx:r.ctx
       ~rpc_id:r.rpc_id ~service_id:r.service_id
       ~method_id:r.mdef.Rpc.Interface.method_id result)

let open_span tracer ~track now frame =
  if Obs.Tracer.is_enabled tracer then begin
    let payload = frame.Net.Frame.payload in
    match Rpc.Wire_format.check payload with
    | Ok () when Rpc.Wire_format.is_request payload ->
        Obs.Tracer.rpc_begin tracer ~rpc:(Rpc.Wire_format.rpc_id payload)
          ~track now
    | Ok () | Error _ -> ()
  end
