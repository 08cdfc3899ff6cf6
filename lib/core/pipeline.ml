type breakdown = {
  parse : Sim.Units.duration;
  demux : Sim.Units.duration;
  deser : Sim.Units.duration;
  mirror_lookup : Sim.Units.duration;
  total : Sim.Units.duration;
}

let rx (cfg : Config.t) ~mirror_lookup ~fields ~arg_bytes =
  let deser =
    Rpc.Deser_cost.cost cfg.Config.deser ~fields ~bytes:arg_bytes
  in
  let parse = cfg.Config.parse_delay in
  let demux = cfg.Config.demux_delay in
  {
    parse;
    demux;
    deser;
    mirror_lookup;
    total = parse + demux + deser + mirror_lookup;
  }

let pp ppf b =
  Format.fprintf ppf "parse=%a demux=%a deser=%a sched=%a total=%a"
    Sim.Units.pp_duration b.parse Sim.Units.pp_duration b.demux
    Sim.Units.pp_duration b.deser Sim.Units.pp_duration b.mirror_lookup
    Sim.Units.pp_duration b.total
