(* E10 — section 6: "the problem is highly amenable to specification
   using TLA+, and can be model-checked for correctness relatively
   easily." Exhaustive exploration of the CONTROL-line protocol. *)

let run () =
  Common.section "E10: exhaustive model check of the CONTROL-line protocol";
  List.iter
    (fun packets ->
      Common.note "packets=%d: %s" packets
        (Protocheck.Lauberhorn_model.check ~packets ()))
    [ 1; 2; 3; 4; 5; 6; 8 ];
  Common.note
    "paper expectation: all races benign — every interleaving preserves";
  Common.note
    "the invariants (no lost/duplicated RPC, bounded in-flight, no deadlock).";
  Format.printf "@.";
  Common.note "activation/retirement channel (Figure 5 + section 5.2):";
  List.iter
    (fun packets ->
      Common.note "packets=%d: %s" packets
        (Protocheck.Dispatch_model.check ~packets ~guarded:true ()))
    [ 2; 3; 5 ];
  Common.note
    "the unguarded variant (deactivation without the endpoint-empty";
  Common.note
    "check) deadlocks with a stranded request — the checker finds the";
  Common.note
    "race in ~50 states (see test/test_protocheck.ml and";
  Common.note "examples/model_check.exe).";
  []
