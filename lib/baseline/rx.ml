type outcome = Bad_rpc | No_service | No_method | Bad_args | Request

type t = {
  mutable outcome : outcome;
  mutable port : int;
  mutable payload_len : int;
  mutable rpc_id : int;
  mutable service_id : int;
  mutable ctx : bytes option;
  mutable src : Net.Frame.endpoint;
  mutable dst : Net.Frame.endpoint;
  mutable mdef : Rpc.Interface.method_def;
  mutable args : Rpc.Value.t;
  mutable arg_bytes : int;
}

(* What a cleared record's method points to: no service's. *)
let no_method =
  Rpc.Interface.method_def ~id:(-1) ~name:"none" ~request:Rpc.Schema.Unit
    ~response:Rpc.Schema.Unit Fun.id

let nobody = Net.Frame.empty.Net.Frame.src

let create () =
  {
    outcome = Bad_rpc;
    port = 0;
    payload_len = 0;
    rpc_id = 0;
    service_id = 0;
    ctx = None;
    src = nobody;
    dst = nobody;
    mdef = no_method;
    args = Rpc.Value.Unit;
    arg_bytes = 0;
  }

let[@hot_path] clear r =
  r.outcome <- Bad_rpc;
  r.ctx <- None;
  r.src <- nobody;
  r.dst <- nobody;
  r.mdef <- no_method;
  r.args <- Rpc.Value.Unit

let counter = function
  | Bad_rpc -> "rx_bad_rpc"
  | No_service -> "rx_no_service"
  | No_method -> "rx_no_method"
  | Bad_args -> "rx_bad_args"
  | Request -> invalid_arg "Rx.counter: a request is not a drop"

(* The frame starts at byte 0 of [b] and its payload is the RPC
   message. Each step reads the message where it lies, and the first
   that fails names the outcome. *)
let[@hot_path] decode_into by_port service r b =
  let off = Net.Frame.payload_offset and len = Net.Frame.payload_len b ~off:0 in
  let port = Net.Frame.dst_port b ~off:0 in
  r.port <- port;
  r.payload_len <- len;
  match Rpc.Wire_format.check_sub b ~off ~len with
  | Error _ -> r.outcome <- Bad_rpc
  | Ok () -> (
      r.rpc_id <- Rpc.Wire_format.rpc_id_sub b ~off ~len;
      match Hashtbl.find by_port port with
      | exception Not_found -> r.outcome <- No_service
      | sv -> (
          match
            Rpc.Interface.method_by_id (service sv)
              (Rpc.Wire_format.method_id_sub b ~off ~len)
          with
          | exception Not_found -> r.outcome <- No_method
          | mdef -> (
              let pos = Rpc.Wire_format.body_offset_sub b ~off ~len in
              let arg_bytes = len - pos in
              match
                Rpc.Codec.decode_sub mdef.Rpc.Interface.request b
                  ~pos:(off + pos) ~len:arg_bytes
              with
              | Error _ -> r.outcome <- Bad_args
              | Ok args ->
                  r.outcome <- Request;
                  r.service_id <- Rpc.Wire_format.service_id_sub b ~off ~len;
                  r.ctx <- Rpc.Wire_format.ctx_sub b ~off ~len;
                  r.src <- Net.Frame.src_endpoint b ~off:0;
                  r.dst <- Net.Frame.dst_endpoint b ~off:0;
                  r.mdef <- mdef;
                  r.args <- args;
                  r.arg_bytes <- arg_bytes)))

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
