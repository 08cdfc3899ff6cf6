(* Rack glue: the one engine, the switch, and the wires between them.
   See the interface for the topology; the invariant maintained here is
   that every hand-off onto a wire runs exactly that wire's latency
   later, computed here from the port's configuration.

   A frame on a wire allocates nothing of its own. Each switch port has
   two wires, one toward the switch and one away from it (port [hosts]
   is the uplink), and each wire is a {!Sim.Fifo} of the frames in
   flight plus one arrival closure built at [create]. A wire has one
   constant latency, so its arrivals fire in send order (the engine
   breaks same-instant ties by scheduling order): each arrival pops the
   oldest frame. A host's wire consults the wire-fault seam first; a
   frame is pushed only once the seam accepts it, so a wire the seam
   cuts loses the frame without desynchronising its FIFO. The uplink's
   wires stay outside the seam. *)

type t = {
  hosts : int;
  engine : Sim.Engine.t;
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
  (* the wire-fault seam; [None] (the default) costs one load-and-branch
     per hand-off *)
  mutable link_fault : (src:int -> dst:int -> at:Sim.Units.time -> bool) option;
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

(* Hand [fn] onto host [host]'s wire, [src] → [dst] (one of them is the
   switch, [hosts]): it runs one link latency from now, unless the
   wire-fault seam cuts it, which is counted. Answers whether the wire
   accepted it. *)
let[@hot_path] hand_off t ~host ~src ~dst fn =
  let at = Sim.Engine.now t.engine + t.links.(host).Switch.latency in
  let cut =
    match t.link_fault with
    | None -> false
    | Some cut -> cut ~src ~dst ~at
  in
  if cut then t.n_link_drops <- t.n_link_drops + 1
  else ignore (Sim.Engine.schedule_at t.engine ~at fn);
  not cut

(* Put [frame] on one of host [host]'s wires. *)
let[@hot_path] send_host t ~host ~src ~dst wire arrive frame =
  if hand_off t ~host ~src ~dst arrive then Sim.Fifo.push wire frame

(* Put [frame] on one of the uplink's wires. *)
let[@hot_path] send_uplink t wire arrive frame =
  Sim.Fifo.push wire frame;
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.uplink_conf.Switch.latency
       arrive)

(* The switch transmits [frame] out of [port]. *)
let[@hot_path] send_outbound t ~port frame =
  if port < t.hosts then
    send_host t ~host:port ~src:t.hosts ~dst:port t.outbound.(port)
      t.outbound_arrive.(port) frame
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
  let engine = Sim.Engine.create () in
  let t_ref = ref None in
  let deliver ~port frame =
    match !t_ref with
    | Some t -> send_outbound t ~port frame
    | None -> assert false
  in
  (* one option per port, built here so routing allocates nothing *)
  let ports = Array.init n Option.some in
  let route frame =
    let ip = Net.Ip_addr.to_int frame.Net.Frame.dst.Net.Frame.ip in
    if ip >= base_ip && ip < base_ip + hosts then ports.(ip - base_ip)
    else ports.(hosts) (* everything else exits via the uplink *)
  in
  let switch =
    Switch.create engine
      ~ports:(Array.append links [| uplink |])
      ?cap_in ?cap_out ?metrics ~route ~deliver ()
  in
  let fifos () = Array.init n (fun _ -> Sim.Fifo.create Net.Frame.empty) in
  let t =
    {
      hosts;
      engine;
      switch;
      links;
      uplink_conf = uplink;
      host_ingress = Array.make hosts None;
      uplink_ingress = None;
      inbound = fifos ();
      inbound_arrive = [||];
      outbound = fifos ();
      outbound_arrive = [||];
      link_fault = None;
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
let engine t = t.engine
let host_engine t _ = t.engine
let master_engine t = t.engine
let host_endpoint _t host ~port = host_endpoint_ ~host ~port

let connect_host t h ~ingress =
  if h < 0 || h >= t.hosts then invalid_arg "Fabric.connect_host: bad host";
  t.host_ingress.(h) <- Some ingress

let connect_uplink t ingress = t.uplink_ingress <- Some ingress

let[@hot_path] host_egress t h frame =
  send_host t ~host:h ~src:h ~dst:t.hosts t.inbound.(h) t.inbound_arrive.(h)
    frame

let[@hot_path] uplink_send t frame =
  send_uplink t t.inbound.(t.hosts) t.inbound_arrive.(t.hosts) frame

let post_to_host t ~host fn =
  ignore (hand_off t ~host ~src:t.hosts ~dst:host fn)

let post_to_master t ~host fn =
  ignore (hand_off t ~host ~src:host ~dst:t.hosts fn)

(* The wire fault seam: [cut] (a pure function of wire ends and time —
   in practice a Fault.Plan flap/partition schedule compiled by
   Fault.Rack_chaos) decides, per hand-off, whether the wire eats it;
   {!hand_off} counts the loss, so nothing is silent. *)
let set_link_fault t cut = t.link_fault <- cut [@@fault_seam]

let link_drops_total t = t.n_link_drops
let run t ~until = Sim.Engine.run t.engine ~until
let undeliverable t = t.n_undeliverable
let windows_run _ = 0
let messages_merged _ = 0
let events_processed t = Sim.Engine.events_processed t.engine
