(* E13 — fault injection: goodput and retry-inflated latency vs wire
   loss, for all three stacks.

   The paper's recovery structure (§5.1: TRYAGAIN dummy fills, bounded
   rings, NIC-side protocol state) only matters when the network
   misbehaves. Here every request and reply crosses a seeded
   fault-injection link (Fault.Plan, deterministic under Sim.Rng), and
   the client retries with exponential backoff + jitter. Goodput is
   completed RPCs per second of offered window; latency percentiles are
   measured client-side, so they include retransmission delays — the
   price of loss is visible in p99 long before goodput collapses.

   The whole sweep is deterministic: same seeds, same plan, same
   numbers (scripts/gates.sh, under `dune build @check`, runs it twice
   and diffs). *)

let losses = [ 0.0; 0.01; 0.05; 0.1 ]
let rate = 100_000.
let horizon = Sim.Units.ms 10

let flavours =
  [
    Common.Linux Coherence.Interconnect.pcie_enzian;
    Common.Bypass Coherence.Interconnect.pcie_enzian;
    Common.Lauberhorn (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push);
  ]

let plan_of ~loss =
  Fault.Plan.make ~seed:7
    ~wire:(Fault.Plan.link ~drop:loss ())
    ()

let run () =
  Common.section
    "E13: loss sweep — goodput and latency (with retries) vs wire loss";
  let results =
    List.map
      (fun loss ->
        ( loss,
          List.map
            (fun flavour ->
              (Common.lossy_run ~ncores:4 ~rate ~horizon ~plan:(plan_of ~loss)
                 flavour)
                .Common.m)
            flavours ))
      losses
  in
  Common.table
    ~header:
      ([ "wire loss" ]
      @ List.concat_map
          (fun f ->
            let n = Common.flavour_name f in
            [ n ^ " goodput"; n ^ " p50"; n ^ " p99"; n ^ " rtx" ])
          flavours)
    (List.map
       (fun (loss, ms) ->
         Printf.sprintf "%.2f" loss
         :: List.concat_map
              (fun m ->
                [
                  Common.rate_str m.Common.throughput;
                  Common.ns m.Common.p50;
                  Common.ns m.Common.p99;
                  string_of_int (Common.counter m "retransmits");
                ])
              ms)
       results);
  List.iter
    (fun (loss, ms) ->
      Common.note "loss %.2f timeline digests: %s" loss
        (String.concat " "
           (List.map
              (fun m ->
                Printf.sprintf "%s=%d" m.Common.name
                  (Common.counter m "timeline_digest"))
              ms)))
    results;
  (* Shape checks: retries recover everything at these loss rates, and
     the retransmission counters actually move with loss. *)
  let all_complete =
    List.for_all
      (fun (_, ms) ->
        List.for_all
          (fun m -> m.Common.completed = m.Common.sent && m.Common.sent > 0)
          ms)
      results
  in
  let _, at0 = List.hd results in
  let _, at10 = List.nth results 3 in
  let rtx_moves =
    List.for_all2
      (fun m0 m10 ->
        Common.counter m0 "retransmits" = 0
        && Common.counter m10 "retransmits" > 0)
      at0 at10
  in
  let masked =
    { Common.id = "E13.loss_masked"; holds = all_complete && rtx_moves }
  in
  Common.note
    "paper expectation: retry layer masks loss (goodput holds); latency";
  Common.note
    "tails inflate with loss while the fault-free column is untouched.";
  Common.note "every RPC completed: %b; retransmits 0 at loss 0, >0 at 0.1: %b%s"
    all_complete rtx_moves
    (Common.verdict masked);
  [ masked ]
