type t = {
  profile : Coherence.Interconnect.profile;
  tryagain_timeout : Sim.Units.duration;
  dma_threshold : int;
  aux_lines : int;
  nic_queue_depth : int;
  parse_delay : Sim.Units.duration;
  demux_delay : Sim.Units.duration;
  deser : Rpc.Deser_cost.profile;
  tryagains_before_yield : int;
  encrypt : bool;
  shed : bool;
  sanitize : bool;
}

let enzian =
  {
    profile = Coherence.Interconnect.eci;
    tryagain_timeout = Sim.Units.ms 15;
    dma_threshold = 4096;
    aux_lines = 31;
    nic_queue_depth = 64;
    parse_delay = Sim.Units.ns 150;
    demux_delay = Sim.Units.ns 100;
    deser = Rpc.Deser_cost.nic_pipeline;
    tryagains_before_yield = 2;
    encrypt = false;
    shed = false;
    sanitize = false;
  }

let modern =
  {
    enzian with
    profile = Coherence.Interconnect.cxl3;
    aux_lines = 63;
    parse_delay = Sim.Units.ns 80;
    demux_delay = Sim.Units.ns 60;
  }

let with_encryption t encrypt = { t with encrypt }
let with_shed t shed = { t with shed }
let with_sanitize t sanitize = { t with sanitize }

let with_timeout t timeout =
  if timeout <= 0 then invalid_arg "Config.with_timeout: non-positive";
  { t with tryagain_timeout = timeout }

let with_dma_threshold t n =
  if n <= 0 then invalid_arg "Config.with_dma_threshold: non-positive";
  { t with dma_threshold = n }

let control_header_bytes = 40

let inline_capacity t =
  t.profile.Coherence.Interconnect.cache_line_bytes - control_header_bytes

let endpoint_window t =
  inline_capacity t
  + (t.aux_lines * t.profile.Coherence.Interconnect.cache_line_bytes)
