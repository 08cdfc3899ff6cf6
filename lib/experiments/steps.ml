(* E2 — Section 2's twelve steps: where each executes and what the CPU
   pays per small RPC under each stack.

   Part A is the structural comparison (Figure 1 vs Figure 3): which
   component performs each step. Part B measures it: total CPU
   nanoseconds (user + kernel, handler excluded) consumed per completed
   small RPC, the paper's "essentially zero software overhead" claim. *)

let step_table () =
  Common.table
    ~header:[ "#"; "step (section 2)"; "linux"; "bypass"; "lauberhorn" ]
    [
      [ "1"; "read packet contents"; "NIC"; "NIC"; "NIC" ];
      [ "2"; "protocol processing (checksums)"; "NIC"; "NIC"; "NIC" ];
      [ "3"; "demultiplex to queue"; "NIC(RSS)"; "NIC(flowdir)"; "NIC" ];
      [ "4"; "interrupt a core"; "CPU(irq)"; "-- (spin)"; "-- (stalled load)" ];
      [ "5"; "general protocol processing"; "CPU(softirq)"; "CPU(poll)"; "NIC" ];
      [ "6"; "identify process"; "CPU(socket)"; "CPU(demux)"; "NIC" ];
      [ "7"; "find a core"; "CPU(sched)"; "static"; "NIC+kernel state" ];
      [ "8"; "schedule the process"; "CPU(sched)"; "static"; "NIC (fast path)" ];
      [ "9"; "context switch"; "CPU"; "--"; "-- (fast path)" ];
      [ "10"; "unmarshal arguments"; "CPU"; "CPU"; "NIC" ];
      [ "11"; "find handler address"; "CPU"; "CPU"; "NIC (code ptr in line)" ];
      [ "12"; "jump to it"; "CPU"; "CPU"; "CPU" ];
    ]

let handler_time = Sim.Units.ns 500
let rate = 100_000.
let horizon = Sim.Units.ms 30

let cpu_per_rpc flavour =
  let m =
    Common.open_loop_run ~ncores:4 ~handler_time ~rate ~horizon flavour
  in
  let total_cpu = m.Common.user_ns + m.Common.kernel_ns in
  let handler_total = m.Common.completed * handler_time in
  let overhead =
    if m.Common.completed = 0 then 0
    else (total_cpu - handler_total) / m.Common.completed
  in
  (m, overhead)

let run () =
  Common.section "E2: the twelve receive-path steps, and CPU ns per RPC";
  step_table ();
  Format.printf "@.";
  let flavours =
    [
      Common.Linux Coherence.Interconnect.pcie_enzian;
      Common.Bypass Coherence.Interconnect.pcie_enzian;
      Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
    ]
  in
  let rows =
    List.map
      (fun flavour ->
        let m, overhead = cpu_per_rpc flavour in
        ( m.Common.name,
          [
            m.Common.name;
            string_of_int m.Common.completed;
            Common.ns m.Common.p50;
            Common.ns overhead;
            Common.ns (m.Common.spin_ns / max 1 m.Common.completed);
          ],
          overhead ))
      flavours
  in
  Common.table
    ~header:
      [ "stack"; "completed"; "p50 latency"; "cpu-ns/rpc (no handler)";
        "spin-ns/rpc" ]
    (List.map (fun (_, row, _) -> row) rows);
  let overhead name =
    let _, _, o = List.find (fun (n, _, _) -> String.equal n name) rows in
    o
  in
  let lau = overhead "lauberhorn/eci-enzian" in
  let lin = overhead "linux/pcie-enzian" in
  let cost = { Common.id = "E2.dispatch_cost"; holds = lau * 4 < lin } in
  Common.note
    "paper expectation: Lauberhorn software dispatch cost approaches zero;";
  Common.note
    "measured: lauberhorn %dns vs linux %dns per RPC (%.1fx less)%s" lau lin
    (float_of_int lin /. float_of_int (max 1 lau))
    (Common.verdict cost);
  [ cost ]
