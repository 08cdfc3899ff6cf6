(* The rack-scale chaos driver: the one place cluster fault seams get
   armed. It compiles a Fault.Plan's cluster schedules into the pure
   predicates the seams consume — per-host flap membership, per-pair
   partition windows, per-port wedge windows, brownout windows — and
   installs them on the fabric wire slot, the switch, and the control
   plane. Everything installed is a pure function of simulated time,
   so an armed rack stays byte-identical run to run.

   Injection topology:
   - link flaps and Master-plane partitions cut the host wires
     (Fabric.set_link_fault): a host's wire carries its frames
     AND its control traffic, so a flapping link eats probes and acks
     exactly like data — the master is attached to the switch, so an
     asymmetric Master<->host partition is a directional cut of that
     host's physical wire;
   - Host->Host partitions cut at the switch crossbar
     (Switch.set_partition), where the (ingress, egress) pair is
     visible;
   - wedges and brownouts are switch-local (Switch.set_port_wedge /
     set_brownout);
   - the master crash/restart is scheduled on the fabric's engine
     against Control.crash / Control.restart. *)

type t = { c_flaps : Obs.Metrics.counter option }

let windows_hit ws at = List.exists (fun w -> Plan.in_window w at) ws

let host_in planes h =
  List.exists
    (function Plan.Host h' -> h' = h | Plan.Master -> false)
    planes

let master_in planes =
  List.exists (function Plan.Master -> true | Plan.Host _ -> false) planes

let arm ~plan ~fabric ~control ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let cl = plan.Plan.cluster in
  if Plan.cluster_is_none cl then { c_flaps = None }
  else begin
    let hosts = Cluster.Fabric.hosts fabric in
    let engine = Cluster.Fabric.engine fabric in
    let sw = Cluster.Fabric.switch fabric in
    let ports = Cluster.Switch.ports sw in
    (* --- compile the schedules into per-host / per-port lookups --- *)
    let flap_spec = Array.make hosts None in
    List.iter
      (fun (h, f) ->
        if h < hosts then
          flap_spec.(h) <- Some (Plan.flap_seed plan ~host:h, f))
      cl.Plan.flaps;
    let to_master_cut = Array.make hosts [] in
    let from_master_cut = Array.make hosts [] in
    let pair_cut = Array.init hosts (fun _ -> Array.make hosts []) in
    List.iter
      (fun (p : Plan.partition) ->
        for s = 0 to hosts - 1 do
          if host_in p.srcs s then begin
            if master_in p.dsts then
              to_master_cut.(s) <- p.span :: to_master_cut.(s);
            for d = 0 to hosts - 1 do
              if d <> s && host_in p.dsts d then
                pair_cut.(s).(d) <- p.span :: pair_cut.(s).(d)
            done
          end;
          if master_in p.srcs && host_in p.dsts s then
            from_master_cut.(s) <- p.span :: from_master_cut.(s)
        done)
      cl.Plan.partitions;
    (* --- wire-level cuts: flaps (both directions) + Master planes --- *)
    let flap_cut h at =
      match flap_spec.(h) with
      | None -> false
      | Some (seed, f) -> Plan.flap_down_at ~seed f ~at
    in
    let wire_faults =
      cl.Plan.flaps <> []
      || Array.exists (fun ws -> ws <> []) to_master_cut
      || Array.exists (fun ws -> ws <> []) from_master_cut
    in
    if wire_faults then begin
      Cluster.Fabric.set_link_fault fabric
        (Some
           (fun ~src ~dst ~at ->
             if src >= hosts then
               dst < hosts
               && (flap_cut dst at || windows_hit from_master_cut.(dst) at)
             else flap_cut src at || windows_hit to_master_cut.(src) at));
      Obs.Metrics.derive metrics "fault_link_drops" (fun () ->
          Cluster.Fabric.link_drops_total fabric)
    end;
    (* --- crossbar cuts: Host -> Host partitions --- *)
    if Array.exists (Array.exists (fun ws -> ws <> [])) pair_cut then
      Cluster.Switch.set_partition sw
        (Some
           (fun ~src ~dst ~at ->
             src < hosts && dst < hosts && windows_hit pair_cut.(src).(dst) at));
    (* --- switch-local stalls: port wedges and brownouts --- *)
    if cl.Plan.wedges <> [] then begin
      let wedge_w = Array.make ports [] in
      List.iter
        (fun (p, w) -> if p < ports then wedge_w.(p) <- w :: wedge_w.(p))
        cl.Plan.wedges;
      Cluster.Switch.set_port_wedge sw
        (Some
           (fun ~port ~at ->
             List.find_map
               (fun w -> if Plan.in_window w at then Some w.Plan.until else None)
               wedge_w.(port)))
    end;
    if cl.Plan.brownouts <> [] then
      Cluster.Switch.set_brownout sw
        (Some
           (fun ~at ->
             List.find_map
               (fun w -> if Plan.in_window w at then Some w.Plan.until else None)
               cl.Plan.brownouts));
    (* --- master crash / restart --- *)
    (match cl.Plan.master.crash_at with
    | Some at ->
        ignore
          (Sim.Engine.schedule_at engine ~at (fun () ->
               Cluster.Control.crash control));
        if cl.Plan.master.restart then
          ignore
            (Sim.Engine.schedule_at engine
               ~at:(at + cl.Plan.master.downtime)
               (fun () -> Cluster.Control.restart control))
    | None -> ());
    (* --- flap-transition counting: one event per
       down-edge, a self-rescheduling O(1)-memory chain --- *)
    let c_flaps =
      if cl.Plan.flaps = [] then None
      else begin
        let c = Obs.Metrics.counter metrics "fault_link_flaps" in
        Array.iter
          (function
            | None -> ()
            | Some (seed, f) ->
                let rec edge cycle =
                  ignore
                    (Sim.Engine.schedule_at engine
                       ~at:(Plan.flap_edge ~seed f ~cycle)
                       (fun () ->
                         Obs.Metrics.incr c;
                         edge (cycle + 1)))
                in
                edge 0)
          flap_spec;
        Some c
      end
    in
    { c_flaps }
  end

let link_flaps t =
  match t.c_flaps with Some c -> Obs.Metrics.value c | None -> 0

