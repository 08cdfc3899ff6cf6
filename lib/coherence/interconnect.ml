type profile = {
  name : string;
  cache_line_bytes : int;
  core_freq : Sim.Units.freq;
  load_request : Sim.Units.duration;
  load_response : Sim.Units.duration;
  store_release : Sim.Units.duration;
  fetch_exclusive : Sim.Units.duration;
  mmio_read : Sim.Units.duration;
  mmio_write : Sim.Units.duration;
  dma_read : Sim.Units.duration;
  dma_write : Sim.Units.duration;
  dma_bandwidth_gbps : float;
  coherent_bandwidth_gbps : float;
  interrupt_latency : Sim.Units.duration;
}

let eci =
  {
    name = "eci-enzian";
    cache_line_bytes = 128;
    core_freq = { Sim.Units.ghz = 2.0 };
    load_request = 350;
    load_response = 350;
    store_release = 250;
    fetch_exclusive = 650;
    mmio_read = 1_100;
    mmio_write = 450;
    dma_read = 900;
    dma_write = 800;
    dma_bandwidth_gbps = 100.;
    coherent_bandwidth_gbps = 75.;
    interrupt_latency = 2_000;
  }

let pcie_enzian =
  {
    name = "pcie-enzian";
    cache_line_bytes = 128;
    core_freq = { Sim.Units.ghz = 2.0 };
    (* The coherent path does not exist on this NIC; price it as MMIO so
       misuse is visible rather than free. *)
    load_request = 1_100;
    load_response = 1_100;
    store_release = 500;
    fetch_exclusive = 2_200;
    mmio_read = 1_100;
    mmio_write = 500;
    dma_read = 950;
    dma_write = 850;
    dma_bandwidth_gbps = 100.;
    coherent_bandwidth_gbps = 12.;
    interrupt_latency = 2_100;
  }

let pcie_modern =
  {
    name = "pcie-modern";
    cache_line_bytes = 64;
    core_freq = { Sim.Units.ghz = 3.0 };
    load_request = 700;
    load_response = 700;
    store_release = 350;
    fetch_exclusive = 1_400;
    mmio_read = 700;
    mmio_write = 300;
    dma_read = 550;
    dma_write = 450;
    dma_bandwidth_gbps = 256.;
    coherent_bandwidth_gbps = 48.;
    interrupt_latency = 1_200;
  }

let cxl3 =
  {
    name = "cxl3";
    cache_line_bytes = 64;
    core_freq = { Sim.Units.ghz = 3.0 };
    load_request = 200;
    load_response = 200;
    store_release = 150;
    fetch_exclusive = 400;
    mmio_read = 500;
    mmio_write = 250;
    dma_read = 450;
    dma_write = 400;
    dma_bandwidth_gbps = 256.;
    coherent_bandwidth_gbps = 190.;
    interrupt_latency = 1_200;
  }

let all = [ eci; pcie_enzian; pcie_modern; cxl3 ]
let coherent_rtt p = p.load_request + p.load_response

let lines_of_bytes p bytes =
  (bytes + p.cache_line_bytes - 1) / p.cache_line_bytes

let line_transfer p ~bytes =
  if bytes < 0 then invalid_arg "Interconnect.line_transfer: negative size";
  if bytes = 0 then 0
  else
    let n = lines_of_bytes p bytes in
    (* First line pays the full round trip; subsequent fills stream
       behind it at the coherent-path bandwidth. *)
    let per_line =
      int_of_float
        (Float.round
           (float_of_int (p.cache_line_bytes * 8)
           /. p.coherent_bandwidth_gbps))
    in
    coherent_rtt p + ((n - 1) * per_line)

let dma_transfer p ~bytes =
  if bytes < 0 then invalid_arg "Interconnect.dma_transfer: negative size";
  let stream =
    int_of_float
      (Float.round (float_of_int (bytes * 8) /. p.dma_bandwidth_gbps))
  in
  p.dma_write + stream

