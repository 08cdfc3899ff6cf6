(* E15 — server-side failure domain: crash/restart lifecycle and NIC
   admission control under overload.

   Part (a) kills the (only) hot service mid-sweep on all four stacks
   and restarts it after a fixed downtime. What distinguishes the
   stacks is not whether they recover — the client's retry layer
   eventually pushes everything through — but *how* the crash window
   is experienced:

   - lauberhorn: the NIC learns of the death through the scheduling
     mirror (one push-lag later), NACKs staged/in-flight requests
     [err_dead], parks the SRAM survivors in limbo and redelivers them
     at the respawn push. Clients see explicit rejects and convert
     them into immediate retries — no timeout burned, nothing silently
     lost (conservation is checked).
   - ccnic-static: same NACK discipline, but with no mirror the kill
     tears NIC state down synchronously — the ablation shows the
     mechanism works without the OS integration, it just cannot
     coexist with dynamic scheduling.
   - linux: the kernel owns the socket buffer, so queued datagrams
     survive and are served after restart — but requests in a
     handler's hands vanish with *no* signal; clients discover the
     crash purely by timeout. That silence is the baseline.
   - bypass: the app owns the rings; a crash stops the pollers, the
     rings absorb arrivals until they overflow, and again there is no
     signal — plus the rings' contents survive only up to capacity.

   Part (b) sweeps offered load from 0.5x to 4x of one service's
   capacity on Lauberhorn with NIC admission control (hysteretic
   shedding, err_shed wire rejects) on and off. With shedding off,
   overload turns into silent SRAM-overflow drops and timeout-driven
   retries; with it on, the NIC fails fast and the latency tail of
   what *is* admitted stays bounded.

   Deterministic under fixed seeds: scripts/gates.sh, under
   `dune build @check`, runs this section twice and requires
   byte-identical output. *)

(* ---------- part (a): crash + restart ---------- *)

let crash_at = Sim.Units.ms 3
let downtime = Sim.Units.ms 2
let rate = 100_000.
let horizon = Sim.Units.ms 10
let drain = Sim.Units.ms 60

type crash_result = {
  m : Common.measurement;
  chaos : Harness.Chaos.t;
  crashes : int;
  restarts : int;
  recovery : Sim.Units.duration option;
      (* first completion at/after the restart instant, relative to the
         crash — "how long until the service demonstrably works again" *)
  window_completions : int;  (* completions inside the outage window *)
}

(* [sanitize] builds the run's sanitizer session on its engine; by
   default [LAUBERHORN_SANITIZE] decides, as for every section. *)
let run_crash ?sanitize ~server_fault flavour =
  let { Common.m; chaos; server_fault = sf } =
    Common.lossy_run ?sanitize ~rate ~horizon ~drain
      ~plan:(Fault.Plan.make ~seed:15 ~server:server_fault ())
      flavour
  in
  let timeline = Harness.Chaos.timeline chaos in
  let restart_time = crash_at + downtime in
  let recovery =
    List.find_map
      (fun (at, _, _) -> if at >= restart_time then Some (at - crash_at) else None)
      timeline
  in
  let window_completions =
    List.length
      (List.filter
         (fun (at, _, _) -> at >= crash_at && at < restart_time)
         timeline)
  in
  {
    m;
    chaos;
    crashes = Fault.Server_fault.crashes sf;
    restarts = Fault.Server_fault.restarts sf;
    recovery;
    window_completions;
  }

(* ---------- part (b): overload with/without admission control ---------- *)

(* One service, two workers at most, 2 us of handler work: the service
   saturates at ~1 M RPC/s. The sweep offers 0.5x..4x of that. *)
let overload_handler = Sim.Units.us 2
let capacity = 1_000_000.
let multiples = [ 0.5; 1.0; 2.0; 4.0 ]
let overload_horizon = Sim.Units.ms 2
let overload_drain = Sim.Units.ms 20

let run_overload ~shed ~mult =
  (Common.lossy_run ~ncores:4 ~max_workers:2 ~handler_time:overload_handler
    ~horizon:overload_horizon ~drain:overload_drain ~retries:5 ~backoff:2.
    ~rate:(capacity *. mult) ~plan:(Fault.Plan.make ~seed:15 ())
    (Common.Lauberhorn
       ( Lauberhorn.Config.with_shed Lauberhorn.Config.enzian shed,
         Lauberhorn.Sched_mirror.Push )))
    .Common.m

(* ---------- the report ---------- *)

let crash_flavours =
  [
    Common.Linux Coherence.Interconnect.pcie_enzian;
    Common.Bypass Coherence.Interconnect.pcie_enzian;
    Common.Static Lauberhorn.Config.enzian;
    Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
  ]

let run () =
  Common.section
    "E15: failover — crash/restart lifecycle and admission control";

  (* part (a): time-triggered crash at 3 ms, restart 2 ms later. *)
  let fault_timed =
    Fault.Plan.server_fault ~crash_at ~downtime ()
  in
  let results =
    List.map (fun f -> run_crash ~server_fault:fault_timed f) crash_flavours
  in
  Common.note "crash at %s, restart after %s, %s offered for %s (+drain)"
    (Common.ns crash_at) (Common.ns downtime) (Common.rate_str rate)
    (Common.ns horizon);
  Common.table
    ~header:
      [
        "stack"; "sent"; "done"; "recovery"; "outage done"; "rejected";
        "rtx"; "abandoned"; "stale"; "requeued";
      ]
    (List.map
       (fun r ->
         let c name = Common.counter r.m name in
         [
           r.m.Common.name;
           string_of_int r.m.Common.sent;
           string_of_int r.m.Common.completed;
           (match r.recovery with
           | Some d -> Common.ns d
           | None -> "never");
           string_of_int r.window_completions;
           string_of_int (c "rejected");
           string_of_int (c "retransmits");
           string_of_int (c "abandoned");
           string_of_int (c "stale_dispatch_caught");
           string_of_int (c "requeues");
         ])
       results);
  List.iter
    (fun r ->
      Common.note "%s: crashes=%d restarts=%d kills=%d respawns=%d digest=%d"
        r.m.Common.name r.crashes r.restarts
        (Common.counter r.m "kills")
        (Common.counter r.m "respawns")
        (Common.counter r.m "timeline_digest"))
    results;
  (* Conservation: every client call must be accounted for — completed
     or explicitly abandoned, never silently lost. On Lauberhorn the
     generous retry policy means nothing is abandoned at all. *)
  let conserved =
    List.for_all
      (fun r ->
        r.m.Common.completed + Common.counter r.m "abandoned"
        = r.m.Common.sent
        && Harness.Client.outstanding
             (Harness.Chaos.client r.chaos)
           = 0)
      results
  in
  let lauberhorn = List.nth results 3 in
  let lb_lossless =
    lauberhorn.m.Common.completed = lauberhorn.m.Common.sent
  in
  let crash_fired =
    List.for_all (fun r -> r.crashes = 1 && r.restarts = 1) results
  in
  Common.note
    "conservation (done + abandoned = sent, none outstanding): %b" conserved;
  Common.note
    "lauberhorn lost nothing (every call completed): %b; all crashes fired: %b%s"
    lb_lossless crash_fired
    (if conserved && lb_lossless && crash_fired then "  [shape holds]"
     else "  [SHAPE VIOLATION]");

  (* The count trigger: crash after the 200th handled RPC instead of at
     a wall-clock instant (only Lauberhorn reports handled RPCs). *)
  let fault_counted =
    Fault.Plan.server_fault ~crash_after_rpcs:200 ~downtime ()
  in
  let rc =
    run_crash ~server_fault:fault_counted
      (Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push))
  in
  Common.note
    "count trigger (crash after 200 handled): crashes=%d sent=%d done=%d \
     rejected=%d requeued=%d"
    rc.crashes rc.m.Common.sent rc.m.Common.completed
    (Common.counter rc.m "rejected")
    (Common.counter rc.m "requeues");

  (* part (b): overload sweep, shedding off vs on. *)
  Common.note "";
  Common.note
    "overload: 1 service, 2 workers, %s handler (capacity ~%s); shed off/on"
    (Common.ns overload_handler) (Common.rate_str capacity);
  let rows =
    List.map
      (fun mult ->
        let off = run_overload ~shed:false ~mult in
        let on_ = run_overload ~shed:true ~mult in
        (mult, off, on_))
      multiples
  in
  Common.table
    ~header:
      [
        "load"; "off done/sent"; "off p99"; "off drop_full"; "on done/sent";
        "on p99"; "on sheds"; "on rejected";
      ]
    (List.map
       (fun (mult, off, on_) ->
         [
           Printf.sprintf "%.1fx" mult;
           Printf.sprintf "%d/%d" off.Common.completed off.Common.sent;
           Common.ns off.Common.p99;
           string_of_int (Common.counter off "nic_queue_drop");
           Printf.sprintf "%d/%d" on_.Common.completed on_.Common.sent;
           Common.ns on_.Common.p99;
           string_of_int (Common.counter on_ "sheds");
           string_of_int (Common.counter on_ "rejected");
         ])
       rows);
  (* Shape: below capacity the shed watermark is never reached, so
     both configurations admit and complete every request (scheduling
     micro-timing differs: admission control samples the queue before
     accepting, the shed-off path after delivering); at 2x overload
     shedding keeps the latency tail of admitted requests no worse
     than the silent-drop tail, and the rejects are explicit instead
     of silent. *)
  let _, off_h, on_h = List.hd rows in
  let below_identical =
    off_h.Common.completed = on_h.Common.completed
    && off_h.Common.sent = on_h.Common.sent
  in
  let _, off2, on2 = List.nth rows 2 in
  let p99_off2 = off2.Common.p99 and p99_on2 = on2.Common.p99 in
  let tail_bounded = p99_on2 <= p99_off2 in
  let explicit_rejects =
    Common.counter on2 "sheds" > 0 && Common.counter on2 "rejected" > 0
  in
  Common.note
    "paper expectation: admission control converts silent SRAM drops into";
  Common.note
    "wire rejects the client can act on, and bounds the admitted tail.";
  Common.note
    "0.5x same done/sent with/without shed: %b; 2x p99 bounded (%s <= %s): \
     %b; rejects explicit: %b%s"
    below_identical (Common.ns p99_on2) (Common.ns p99_off2) tail_bounded
    explicit_rejects
    (if below_identical && tail_bounded && explicit_rejects then
       "  [shape holds]"
     else "  [SHAPE VIOLATION]")
