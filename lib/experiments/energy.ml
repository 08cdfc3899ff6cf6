(* E8 — energy efficiency: where do the cycles go?

   "...with no memory access overhead and no energy wasted in
   spinning" (section 4). At each load level we account every busy
   nanosecond of every core: useful work (user), kernel overhead, spin
   (bypass's poll loops) and stall (Lauberhorn's parked loads, which a
   real core spends in a low-power stalled state). *)

let rates = [ 20_000.; 100_000.; 400_000. ]
let horizon = Sim.Units.ms 30
let ncores = 4

let flavours =
  [
    Common.Linux Coherence.Interconnect.pcie_enzian;
    Common.Bypass Coherence.Interconnect.pcie_enzian;
    Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
  ]

(* E8's claim, on a low load's runs: Lauberhorn never spins, while
   bypass's pollers spin for more than 50 ms of the window. *)
let spin ~lau ~byp =
  {
    Common.id = "E8.spin";
    holds = lau.Common.spin_ns = 0 && byp.Common.spin_ns > Sim.Units.ms 50;
  }

let run () =
  Common.section "E8: cycle accounting — useful vs spin vs stall";
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun flavour ->
            let m = Common.open_loop_run ~ncores ~rate ~horizon flavour in
            let window = ncores * m.Common.window in
            let pct v =
              Printf.sprintf "%5.1f%%"
                (100. *. float_of_int v /. float_of_int window)
            in
            ( (rate, m),
              [
                Common.rate_str rate;
                m.Common.name;
                pct m.Common.user_ns;
                pct m.Common.kernel_ns;
                pct m.Common.spin_ns;
                pct m.Common.stall_ns;
                Common.ns
                  ((m.Common.user_ns + m.Common.kernel_ns + m.Common.spin_ns)
                  / max 1 m.Common.completed);
              ] ))
          flavours)
      rates
  in
  Common.table
    ~header:
      [ "load"; "stack"; "user"; "kernel"; "spin"; "stall";
        "active-ns/rpc" ]
    (List.map snd rows);
  (* Shape: at the lowest load, bypass burns ~all its pollers spinning,
     Lauberhorn spins never. *)
  let find name rate =
    snd
      (fst
         (List.find
            (fun ((r, m), _) ->
              Float.equal r rate && String.equal m.Common.name name)
            rows))
  in
  let lau = find "lauberhorn/eci-enzian" 20_000. in
  let byp = find "bypass/pcie-enzian" 20_000. in
  let spin = spin ~lau ~byp in
  Common.note
    "paper expectation: bypass wastes its cores spinning at low load;";
  Common.note
    "Lauberhorn parks in stalled loads (low-power) and never spins.";
  Common.note "measured at 20k/s: lauberhorn spin=%s, bypass spin=%s%s"
    (Common.ns lau.Common.spin_ns) (Common.ns byp.Common.spin_ns)
    (Common.verdict spin);
  [ spin ]
