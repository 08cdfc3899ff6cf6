type breakdown = {
  parse : Sim.Units.duration;
  demux : Sim.Units.duration;
  deser : Sim.Units.duration;
  mirror_lookup : Sim.Units.duration;
  total : Sim.Units.duration;
}

let deser (cfg : Config.t) ~fields ~arg_bytes =
  Rpc.Deser_cost.cost cfg.Config.deser ~fields ~bytes:arg_bytes

let total (cfg : Config.t) ~mirror_lookup ~fields ~arg_bytes =
  cfg.Config.parse_delay + cfg.Config.demux_delay
  + deser cfg ~fields ~arg_bytes
  + mirror_lookup

let rx (cfg : Config.t) ~mirror_lookup ~fields ~arg_bytes =
  {
    parse = cfg.Config.parse_delay;
    demux = cfg.Config.demux_delay;
    deser = deser cfg ~fields ~arg_bytes;
    mirror_lookup;
    total = total cfg ~mirror_lookup ~fields ~arg_bytes;
  }

let pp ppf b =
  Format.fprintf ppf "parse=%a demux=%a deser=%a sched=%a total=%a"
    Sim.Units.pp_duration b.parse Sim.Units.pp_duration b.demux
    Sim.Units.pp_duration b.deser Sim.Units.pp_duration b.mirror_lookup
    Sim.Units.pp_duration b.total
