(* Rack glue: engines, the shard lookahead matrix, the switch, and the
   wires between them. See the interface for the topology; the
   invariant maintained here is that every cross-shard hand-off goes
   through Shard_engine.post with exactly the wire latency the
   lookahead matrix promises, so the conservative windows are as wide
   as the topology allows and the merge-order determinism contract
   holds for whole racks.

   A frame on a wire allocates nothing of its own. Each switch port has
   two wires, one toward the switch and one away from it (port [hosts]
   is the uplink), and each wire is a {!Sim.Fifo} of the frames in
   flight plus one arrival closure built at [create]. A wire has one
   constant latency, so its arrivals fire in send order (a shard post
   merges same-time messages from one source in posting order, and the
   engine breaks same-instant ties by scheduling order): each arrival
   pops the oldest frame. A host's wires cross shards, through
   Shard_engine.post with the wire's arrival as the message; a frame is
   pushed only once the post is accepted, so a wire the fault seam cuts
   loses the frame without desynchronising its FIFO. The uplink's wires
   stay on the master shard and are plain engine events. *)

type t = {
  hosts : int;
  engines : Sim.Engine.t array; (* hosts + 1; last = switch/master *)
  shard : Sim.Shard_engine.t;
  switch : Switch.t;
  links : Switch.port_conf array; (* per host port *)
  uplink_conf : Switch.port_conf;
  host_ingress : (Net.Frame.t -> unit) option array;
  mutable uplink_ingress : (Net.Frame.t -> unit) option;
  (* per switch port: the frames in flight toward the switch and away
     from it, and each wire's arrival *)
  inbound : Net.Frame.t Sim.Fifo.t array;
  mutable inbound_arrive : (unit -> unit) array;
  outbound : Net.Frame.t Sim.Fifo.t array;
  mutable outbound_arrive : (unit -> unit) array;
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

(* A frame reaches the switch on [port]'s inbound wire. *)
let[@hot_path] arrive_inbound t port () =
  Switch.ingress t.switch ~port (Sim.Fifo.pop t.inbound.(port))

(* A frame reaches the device at the far end of [port]'s outbound wire:
   a host's stack, or the client behind the uplink. *)
let[@hot_path] arrive_outbound t port () =
  let frame = Sim.Fifo.pop t.outbound.(port) in
  let ingress =
    if port < t.hosts then t.host_ingress.(port) else t.uplink_ingress
  in
  match ingress with
  | Some ingress -> ingress frame
  | None -> t.n_undeliverable <- t.n_undeliverable + 1

(* Put [frame] on a host's wire, [src] → [dst] across shards. *)
let[@hot_path] send_across t ~src ~dst ~at wire arrive frame =
  if Sim.Shard_engine.post t.shard ~src ~dst ~at arrive then
    Sim.Fifo.push wire frame

(* Put [frame] on one of the uplink's wires, both of whose ends are on
   the master shard. *)
let[@hot_path] send_uplink t wire arrive frame =
  Sim.Fifo.push wire frame;
  ignore
    (Sim.Engine.schedule_after t.engines.(t.hosts)
       ~after:t.uplink_conf.Switch.latency arrive)

(* The switch transmits [frame] out of [port]. *)
let[@hot_path] send_outbound t ~port frame =
  if port < t.hosts then
    send_across t ~src:t.hosts ~dst:port
      ~at:(Sim.Engine.now t.engines.(t.hosts) + t.links.(port).Switch.latency)
      t.outbound.(port) t.outbound_arrive.(port) frame
  else send_uplink t t.outbound.(port) t.outbound_arrive.(port) frame

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
  let t_ref = ref None in
  let deliver ~port frame =
    match !t_ref with
    | Some t -> send_outbound t ~port frame
    | None -> assert false
  in
  (* one option per port, built here so routing allocates nothing *)
  let ports = Array.init n Option.some in
  let route frame =
    let ip = Net.Ip_addr.to_int frame.Net.Frame.ip.Net.Ipv4.dst in
    if ip >= base_ip && ip < base_ip + hosts then ports.(ip - base_ip)
    else ports.(hosts) (* everything else exits via the uplink *)
  in
  let switch =
    Switch.create master
      ~ports:(Array.append links [| uplink |])
      ?cap_in ?cap_out ?metrics ~route ~deliver ()
  in
  let fifos () = Array.init n (fun _ -> Sim.Fifo.create Net.Frame.empty) in
  let t =
    {
      hosts;
      engines;
      shard;
      switch;
      links;
      uplink_conf = uplink;
      host_ingress = Array.make hosts None;
      uplink_ingress = None;
      inbound = fifos ();
      inbound_arrive = [||];
      outbound = fifos ();
      outbound_arrive = [||];
      n_undeliverable = 0;
      n_link_drops = 0;
    }
  in
  t.inbound_arrive <- Array.init n (arrive_inbound t);
  t.outbound_arrive <- Array.init n (arrive_outbound t);
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

let[@hot_path] host_egress t h frame =
  send_across t ~src:h ~dst:t.hosts
    ~at:(Sim.Engine.now t.engines.(h) + t.links.(h).Switch.latency)
    t.inbound.(h) t.inbound_arrive.(h) frame

let[@hot_path] uplink_send t frame =
  send_uplink t t.inbound.(t.hosts) t.inbound_arrive.(t.hosts) frame

let post_to_host t ~host fn =
  ignore
    (Sim.Shard_engine.post t.shard ~src:t.hosts ~dst:host
       ~at:(Sim.Engine.now (master_engine t) + t.links.(host).Switch.latency)
       fn)

let post_to_master t ~host fn =
  ignore
    (Sim.Shard_engine.post t.shard ~src:host ~dst:t.hosts
       ~at:(Sim.Engine.now t.engines.(host) + t.links.(host).Switch.latency)
       fn)

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
