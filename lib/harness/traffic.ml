(* Addresses are parsed once, at module initialisation. *)
let client_base_ip = Net.Ip_addr.to_int (Net.Ip_addr.of_string "10.0.1.1")

let client_endpoint ?(idx = 0) () =
  {
    Net.Frame.mac =
      Net.Mac_addr.of_int64 (Int64.of_int (0x02_00_00_00_00_10 + idx));
    ip = Net.Ip_addr.of_int (client_base_ip + idx);
    port = 40_000 + (idx mod 20_000);
  }

let default_client = client_endpoint ()

let server_address =
  {
    Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:01";
    ip = Net.Ip_addr.of_string "10.0.0.1";
    port = 0;
  }

let server_endpoint ~port = { server_address with Net.Frame.port }

let request ~rpc_id ~service_id ~method_id ~port ~client ~dst args =
  Net.Frame.make_to_port ~src:client ~dst ~port
    (Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Request ~rpc_id
       ~service_id ~method_id args)

let request_frame ~rpc_id ~service_id ~method_id ~port ~client args =
  request
    ~rpc_id:(Rpc.Wire_format.rpc_id_of_int64 rpc_id)
    ~service_id ~method_id ~port ~client ~dst:server_address args

let inject recorder (driver : Driver.t) ~rpc_id ~service_id ~method_id ~port
    ~client args =
  let frame =
    request ~rpc_id ~service_id ~method_id ~port ~client ~dst:server_address
      args
  in
  Recorder.stamp recorder ~rpc_id;
  driver.Driver.ingress frame
