(* Rack glue: engines, the shard lookahead matrix, the switch, and the
   frame/control-message paths between them. See the interface for the
   topology; the invariant maintained here is that every cross-shard
   hand-off goes through Shard_engine.post with exactly the wire
   latency the lookahead matrix promises, so the conservative windows
   are as wide as the topology allows and the merge-order determinism
   contract holds for whole racks. *)

type t = {
  hosts : int;
  engines : Sim.Engine.t array; (* hosts + 1; last = switch/master *)
  shard : Sim.Shard_engine.t;
  switch : Switch.t;
  links : Switch.port_conf array; (* per host port *)
  uplink_conf : Switch.port_conf;
  host_ingress : (Net.Frame.t -> unit) option array;
  mutable uplink_ingress : (Net.Frame.t -> unit) option;
  mutable n_undeliverable : int;
  mutable n_link_drops : int;  (* wire-fault losses *)
}

let base_ip = Net.Ip_addr.to_int (Net.Ip_addr.of_string "10.0.2.1")

let host_endpoint_ ~host ~port =
  {
    Net.Frame.mac =
      Net.Mac_addr.of_int64 (Int64.of_int (0x02_00_00_00_02_00 + host));
    ip = Net.Ip_addr.of_int (base_ip + host);
    port;
  }

let default_host_link =
  { Switch.latency = Sim.Units.us 1; tx = Sim.Units.ns 100 }

let default_uplink =
  { Switch.latency = Sim.Units.ns 500; tx = Sim.Units.ns 50 }

let create ?(host_link = default_host_link)
    ?(uplink = default_uplink) ?host_links ?cap_in ?cap_out ?metrics
    ~hosts () =
  if hosts < 1 then invalid_arg "Fabric.create: hosts < 1";
  let links =
    match host_links with
    | None -> Array.make hosts host_link
    | Some a when Array.length a = hosts -> a
    | Some _ -> invalid_arg "Fabric.create: host_links size mismatch"
  in
  let n = hosts + 1 in
  let engines = Array.init n (fun _ -> Sim.Engine.create ()) in
  let min_link =
    Array.fold_left
      (fun acc l -> min acc l.Switch.latency)
      links.(0).Switch.latency links
  in
  (* Per-pair lookahead: host↔switch is the host's wire; host↔host is
     the two-wire sum (the through-switch lower bound — no direct
     host↔host posts exist, but the bound is semantically right);
     diagonals (self-posts, unused) get the shard's own wire. *)
  let latency =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let l k = links.(k).Switch.latency in
            if i = j then if i < hosts then l i else min_link
            else if i < hosts && j < hosts then l i + l j
            else if i < hosts then l i
            else l j))
  in
  let shard = Sim.Shard_engine.create ~latency engines in
  let master = engines.(hosts) in
  let host_ingress = Array.make hosts None in
  let t_ref = ref None in
  let deliver ~port frame =
    let t = match !t_ref with Some t -> t | None -> assert false in
    if port < hosts then
      Sim.Shard_engine.post shard ~src:hosts ~dst:port
        ~at:(Sim.Engine.now master + links.(port).Switch.latency)
        (fun () ->
          match t.host_ingress.(port) with
          | Some ingress -> ingress frame
          | None -> t.n_undeliverable <- t.n_undeliverable + 1)
    else
      ignore
        (Sim.Engine.schedule_after master ~after:uplink.Switch.latency
           (fun () ->
             match t.uplink_ingress with
             | Some ingress -> ingress frame
             | None -> t.n_undeliverable <- t.n_undeliverable + 1))
  in
  let route frame =
    let ip = Net.Ip_addr.to_int frame.Net.Frame.ip.Net.Ipv4.dst in
    if ip >= base_ip && ip < base_ip + hosts then Some (ip - base_ip)
    else Some hosts (* everything else exits via the uplink *)
  in
  let switch =
    Switch.create master
      ~ports:(Array.append links [| uplink |])
      ?cap_in ?cap_out ?metrics ~route ~deliver ()
  in
  let t =
    {
      hosts;
      engines;
      shard;
      switch;
      links;
      uplink_conf = uplink;
      host_ingress;
      uplink_ingress = None;
      n_undeliverable = 0;
      n_link_drops = 0;
    }
  in
  t_ref := Some t;
  t

let hosts t = t.hosts
let switch t = t.switch
let host_engine t h = t.engines.(h)
let master_engine t = t.engines.(t.hosts)
let host_endpoint _t host ~port = host_endpoint_ ~host ~port

let connect_host t h ~ingress =
  if h < 0 || h >= t.hosts then invalid_arg "Fabric.connect_host: bad host";
  t.host_ingress.(h) <- Some ingress

let connect_uplink t ingress = t.uplink_ingress <- Some ingress

let host_egress t h frame =
  Sim.Shard_engine.post t.shard ~src:h ~dst:t.hosts
    ~at:(Sim.Engine.now t.engines.(h) + t.links.(h).Switch.latency)
    (fun () -> Switch.ingress t.switch ~port:h frame)

let uplink_send t frame =
  ignore
    (Sim.Engine.schedule_after (master_engine t)
       ~after:t.uplink_conf.Switch.latency (fun () ->
         Switch.ingress t.switch ~port:t.hosts frame))

let post_to_host t ~host fn =
  Sim.Shard_engine.post t.shard ~src:t.hosts ~dst:host
    ~at:(Sim.Engine.now (master_engine t) + t.links.(host).Switch.latency)
    fn

let post_to_master t ~host fn =
  Sim.Shard_engine.post t.shard ~src:host ~dst:t.hosts
    ~at:(Sim.Engine.now t.engines.(host) + t.links.(host).Switch.latency)
    fn

(* The per-pair wire fault seam: [cut] (a pure function of shard ids
   and time — in practice a Fault.Plan flap/partition schedule compiled
   by Fault.Rack_chaos) decides, per post, whether the wire eats the
   message; the fabric counts the loss before swallowing it, so
   nothing is silent. *)
let set_link_fault t cut =
  match cut with
  | None -> Sim.Shard_engine.set_wire_fault t.shard None
  | Some cut ->
      Sim.Shard_engine.set_wire_fault t.shard
        (Some
           (fun ~src ~dst ~at ->
             cut ~src ~dst ~at
             && begin
                  t.n_link_drops <- t.n_link_drops + 1;
                  true
                end))
[@@fault_seam]

let link_drops_total t = t.n_link_drops

let run t ~until = Sim.Shard_engine.run t.shard ~until

let undeliverable t = t.n_undeliverable

let windows_run t = Sim.Shard_engine.windows_run t.shard
let messages_merged t = Sim.Shard_engine.messages_merged t.shard

let events_processed t =
  Array.fold_left (fun acc e -> acc + Sim.Engine.events_processed e) 0 t.engines
