type setup = {
  defs : Rpc.Interface.service_def list;
  ports : int array;
}

let echo_like ~id ~name ~handler_time =
  Rpc.Interface.service ~id ~name
    [
      Rpc.Interface.method_def ~id:0 ~name:"call" ~request:Rpc.Schema.Blob
        ~response:Rpc.Schema.Blob ~handler_time (fun v -> v);
    ]

(* Service [i] of a fleet has id [base_id + i] on port [base_port + i]. *)
let base_id = 100
let base_port = 7_000

let echo_fleet ~n ?(handler_time = Sim.Units.ns 500) () =
  if n <= 0 then invalid_arg "Scenario.echo_fleet: n <= 0";
  {
    defs =
      List.init n (fun i ->
          echo_like ~id:(base_id + i)
            ~name:(Printf.sprintf "svc%d" i)
            ~handler_time);
    ports = Array.init n (fun i -> base_port + i);
  }

let mixed_fleet ~n rng =
  if n <= 0 then invalid_arg "Scenario.mixed_fleet: n <= 0";
  let handler_time () =
    let u = Sim.Rng.float rng in
    if u < 0.70 then Sim.Units.ns (300 + Sim.Rng.int rng ~bound:500)
    else if u < 0.95 then
      Sim.Units.ns (2_000 + Sim.Rng.int rng ~bound:3_000)
    else Sim.Units.ns (20_000 + Sim.Rng.int rng ~bound:30_000)
  in
  {
    defs =
      List.init n (fun i ->
          echo_like ~id:(base_id + i)
            ~name:(Printf.sprintf "svc%d" i)
            ~handler_time:(handler_time ()));
    ports = Array.init n (fun i -> base_port + i);
  }

let check_idx setup i =
  if i < 0 || i >= Array.length setup.ports then
    invalid_arg (Printf.sprintf "Scenario: no service %d" i)

let port_of setup ~service_idx =
  check_idx setup service_idx;
  setup.ports.(service_idx)

let service_id_of setup ~service_idx =
  check_idx setup service_idx;
  (List.nth setup.defs service_idx).Rpc.Interface.service_id

let request_schema setup ~service_idx ~method_id =
  check_idx setup service_idx;
  let def = List.nth setup.defs service_idx in
  match Rpc.Interface.find_method def method_id with
  | Some m -> m.Rpc.Interface.request
  | None ->
      invalid_arg (Printf.sprintf "Scenario: no method %d" method_id)
