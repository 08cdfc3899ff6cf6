(* Distributed microservices: two Lauberhorn machines joined by a
   simulated data-center network. Machine A hosts the frontend; machine
   B hosts the kv store. The frontend's handler makes a *cross-machine*
   nested call: the request leaves A through its TX path, crosses the
   wire, dispatches on B's fast path, and the reply comes back to A's
   NIC, which completes the waiting worker's reply continuation — the
   paper's section 6 nested-RPC story at rack scale.

   Run with: dune exec examples/distributed.exe *)

let rack_propagation = Sim.Units.us 2 (* ~ToR switch hop *)

let machine_a_addr =
  {
    Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0a";
    ip = Net.Ip_addr.of_string "10.0.0.10";
    port = 0;
  }

let machine_b_addr =
  {
    Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0b";
    ip = Net.Ip_addr.of_string "10.0.0.11";
    port = 0;
  }

let () =
  let engine = Sim.Engine.create () in
  let client = ref None in
  let a_ref = ref None and b_ref = ref None in

  (* The network: A's egress reaches B's ingress (for nested requests)
     or the client (for responses to it), by destination IP. B's egress
     symmetrically. *)
  let route_from_a = ref (fun (_ : Net.Frame.t) -> ()) in
  let route_from_b = ref (fun (_ : Net.Frame.t) -> ()) in
  let wire_a_out =
    Net.Wire.create engine ~gbps:100. ~propagation:rack_propagation
      ~deliver:(fun f -> !route_from_a f)
      ()
  in
  let wire_b_out =
    Net.Wire.create engine ~gbps:100. ~propagation:rack_propagation
      ~deliver:(fun f -> !route_from_b f)
      ()
  in

  (* Machine B: the kv store. *)
  let kv = Rpc.Interface.kv_service ~id:2 () in
  let b =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:4
      ~services:[ Lauberhorn.Stack.spec ~port:7002 kv ]
      ~egress:(fun f -> Net.Wire.transmit wire_b_out f)
      ()
  in
  Lauberhorn.Stack.set_address b machine_b_addr;
  b_ref := Some b;

  (* Machine A: the frontend, with service 2 routed to machine B. *)
  let frontend =
    Rpc.Interface.service ~id:4 ~name:"frontend"
      [
        Rpc.Interface.method_def ~id:0 ~name:"page" ~request:Rpc.Schema.Str
          ~response:Rpc.Schema.Blob ~handler_time:(Sim.Units.us 1)
          ~nested:(fun ~call key ~done_ ->
            call ~service_id:2 ~method_id:0 key (fun kv_reply ->
                match kv_reply with
                | Rpc.Value.Tuple [ Rpc.Value.Bool true; Rpc.Value.Blob v ]
                  ->
                    done_
                      (Rpc.Value.Blob (Bytes.cat (Bytes.of_string "<html>") v))
                | _ -> done_ (Rpc.Value.Blob (Bytes.of_string "<html>404"))))
          (fun _ -> Rpc.Value.Blob Bytes.empty);
      ]
  in
  let a =
    Lauberhorn.Stack.create engine ~cfg:Lauberhorn.Config.enzian ~ncores:4
      ~services:[ Lauberhorn.Stack.spec ~port:7100 frontend ]
      ~egress:(fun f -> Net.Wire.transmit wire_a_out f)
      ()
  in
  Lauberhorn.Stack.set_address a machine_a_addr;
  Lauberhorn.Stack.add_remote_service a ~service_id:2
    ~server:{ machine_b_addr with Net.Frame.port = 7002 }
    ~response_schema:(Rpc.Schema.Tuple [ Rpc.Schema.Bool; Rpc.Schema.Blob ]);
  a_ref := Some a;

  (* Routing by destination IP. *)
  (route_from_a :=
     fun f ->
       if Net.Ip_addr.equal f.Net.Frame.dst.Net.Frame.ip machine_b_addr.Net.Frame.ip
       then Lauberhorn.Stack.ingress b f
       else
         match !client with
         | Some c -> Harness.Client.on_reply c f
         | None -> ());
  (route_from_b :=
     fun f ->
       if Net.Ip_addr.equal f.Net.Frame.dst.Net.Frame.ip machine_a_addr.Net.Frame.ip
       then Lauberhorn.Stack.ingress a f
       else
         match !client with
         | Some c -> Harness.Client.on_reply c f
         | None -> ());

  (* The end client talks to machine A. *)
  let c =
    Harness.Client.create engine
      ~send:(fun f -> Lauberhorn.Stack.ingress a f)
      ()
  in
  client := Some c;
  Harness.Client.expect c ~service_id:4 ~method_id:0 Rpc.Schema.Blob;

  (* Seed the kv store on machine B directly. *)
  let put = Option.get (Rpc.Interface.find_method kv 1) in
  ignore
    (put.Rpc.Interface.execute
       (Rpc.Value.Tuple
          [ Rpc.Value.str "user:42"; Rpc.Value.Blob (Bytes.of_string "profile") ]));

  let latencies = Sim.Histogram.create () in
  let misses = ref 0 in
  let remaining = ref 2_000 in
  let rec one () =
    let t0 = Sim.Engine.now engine in
    Harness.Client.call c ~service_id:4 ~method_id:0 ~port:7100
      (Rpc.Value.str "user:42")
      (fun page ->
        (match page with
        | Rpc.Value.Blob bytes when Bytes.length bytes > 6 ->
            Sim.Histogram.record latencies (Sim.Engine.now engine - t0)
        | _ -> incr misses);
        decr remaining;
        if !remaining > 0 then
          ignore
            (Sim.Engine.schedule_after engine ~after:(Sim.Units.us 30) one))
  in
  one ();
  Sim.Engine.run engine ~until:(Sim.Units.s 1);

  Format.printf "distributed: frontend on A, kv on B, %s apart@."
    (Format.asprintf "%a" Sim.Units.pp_duration rack_propagation);
  Format.printf "cross-machine chains: %d complete, %d misses@."
    (Sim.Histogram.count latencies)
    !misses;
  Format.printf "chain latency: %a@." Sim.Histogram.pp_summary latencies;
  let ca name =
    Sim.Counter.value (Sim.Counter.counter (Lauberhorn.Stack.counters a) name)
  in
  Format.printf
    "machine A: nested_calls=%d remote_sends=%d remote_replies=%d@."
    (ca "nested_calls")
    (ca "nested_remote_sends")
    (ca "nested_remote_replies");
  Format.printf
    "@.The chain pays two wire crossings (2 x %s propagation each way)@."
    (Format.asprintf "%a" Sim.Units.pp_duration rack_propagation);
  Format.printf
    "plus two fast-path dispatches; compare examples/microservices.exe@.";
  Format.printf "for the same chain colocated on one machine.@."
