(* Seeded-regression suite for the simlint static checker (lib/simlint).
   Each test feeds a small fixture through [Simlint.check_source] at a
   path chosen to trigger (or suppress) the path-sensitive rule sets,
   and asserts the precise rule that must fire — so a future edit that
   silently disables a rule fails here, not in review. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let rules_of findings = List.map (fun f -> f.Simlint.rule) findings

let count rule findings =
  List.length (List.filter (fun f -> String.equal f.Simlint.rule rule) findings)

let lint ~path src = Simlint.check_source ~path src

(* --- nondeterminism ------------------------------------------------ *)

let test_nondet_random () =
  let fs = lint ~path:"lib/core/thing.ml" "let roll () = Random.int 6\n" in
  checki "one finding" 1 (List.length fs);
  checki "nondeterminism" 1 (count "nondeterminism" fs)

let test_nondet_unix_clock () =
  let fs = lint ~path:"lib/sim/clock.ml" "let now () = Unix.gettimeofday ()\n" in
  checki "nondeterminism" 1 (count "nondeterminism" fs)

let test_nondet_randomized_hashtbl () =
  let fs =
    lint ~path:"lib/net/demux.ml"
      "let tbl () = Hashtbl.create ~random:true 16\n"
  in
  checki "nondeterminism" 1 (count "nondeterminism" fs)

let test_nondet_allowed_in_fault () =
  (* lib/fault owns seeded randomness; the same source must pass there. *)
  let src = "let roll () = Random.int 6\n" in
  checki "flagged in lib/core" 1
    (count "nondeterminism" (lint ~path:"lib/core/thing.ml" src));
  checki "allowed in lib/fault" 0
    (count "nondeterminism" (lint ~path:"lib/fault/plan.ml" src))

let test_nondet_domain_flagged () =
  (* Raw parallelism primitives are thread-scheduling-dependent, and
     lib/ runs in one domain: any direct use must fire the
     nondeterminism rule. *)
  let fs =
    lint ~path:"lib/core/thing.ml"
      "let spawn f = Domain.spawn f\n\
       let guard = Mutex.create ()\n\
       let ctr = Atomic.make 0\n"
  in
  checki "three findings" 3 (count "nondeterminism" fs)

let test_nondet_ok_binding_escape () =
  (* [let[@nondet_ok] ...] scopes the escape to that binding only. *)
  let fs =
    lint ~path:"lib/sim/eng.ml"
      "let[@nondet_ok] barrier = Mutex.create ()\n\
       let bad = Condition.create ()\n"
  in
  checki "only unmarked binding flagged" 1 (count "nondeterminism" fs)

let test_nondet_ok_expression_escape () =
  let fs =
    lint ~path:"lib/sim/eng.ml"
      "let f () = ignore (Atomic.make 0 [@nondet_ok]); Atomic.make 1\n"
  in
  checki "marked expr clean, sibling flagged" 1 (count "nondeterminism" fs)

let test_nondet_ok_nested_binding () =
  (* The span collector must also see bindings nested inside functions,
     not just top-level structure items. *)
  let fs =
    lint ~path:"lib/sim/eng.ml"
      "let run () =\n\
      \  let[@nondet_ok] d = Domain.spawn (fun () -> ()) in\n\
      \  Domain.join d\n"
  in
  checki "nested escape covers its binding only" 1
    (count "nondeterminism" fs)

let test_nondet_sim_rng_clean () =
  let fs =
    lint ~path:"lib/sim/gen.ml"
      "let next rng = Sim.Rng.int rng 100\nlet seeded () = 42\n"
  in
  checki "clean" 0 (List.length fs)

(* --- polymorphic compare ------------------------------------------- *)

let test_poly_eq_flagged () =
  let fs = lint ~path:"lib/core/sched.ml" "let same a b = a = b\n" in
  checki "polymorphic-compare" 1 (count "polymorphic-compare" fs)

let test_poly_literal_exempt () =
  (* [x = 0] compiles to an immediate comparison — must not be flagged. *)
  let fs = lint ~path:"lib/core/sched.ml" "let zero x = x = 0\n" in
  checki "literal compare exempt" 0 (count "polymorphic-compare" fs)

let test_poly_list_mem () =
  let fs =
    lint ~path:"lib/coherence/dir.ml" "let has x xs = List.mem x xs\n"
  in
  checki "List.mem flagged" 1 (count "polymorphic-compare" fs)

let test_poly_scoped_to_core_dirs () =
  (* The poly rule applies to lib/{core,coherence,net,sim,baseline,
     harness} only. *)
  let src = "let same a b = a = b\n" in
  checki "not applied in lib/experiments" 0
    (count "polymorphic-compare" (lint ~path:"lib/experiments/fig2.ml" src));
  List.iter
    (fun path ->
      checki ("applied in " ^ path) 1
        (count "polymorphic-compare" (lint ~path src)))
    [ "lib/net/frame.ml"; "lib/baseline/linux_stack.ml"; "lib/harness/chaos.ml" ]

(* --- hot-path allocation discipline -------------------------------- *)

let test_hot_closure () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "let[@hot_path] f xs = List.map (fun x -> x + 1) xs\n"
  in
  checkb "closure flagged" true (count "hot-path" fs >= 1)

let test_hot_tuple_record_list () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "type r = { a : int; b : int }\n\
       let[@hot_path] f x = ((x, x), { a = x; b = x }, [ x ])\n"
  in
  checkb "tuple flagged" true (count "hot-path" fs >= 3)

let test_hot_string_building () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "let[@hot_path] f a b = a ^ Printf.sprintf \"%d\" b\n"
  in
  checki "both builders flagged" 2 (count "hot-path" fs)

let test_hot_partial_application () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "let add3 a b c = a + b + c\nlet[@hot_path] f x = add3 x 1\n"
  in
  checki "partial application flagged" 1 (count "hot-path" fs)

let test_hot_optional_args_not_partial () =
  (* Omitting an optional argument is default elimination, not closure
     construction — the arity table must not count it. *)
  let fs =
    lint ~path:"lib/net/fast.ml"
      "let sum ?(init = 0) a b = init + a + b\n\
       let[@hot_path] f x = sum x x\n"
  in
  checki "no finding" 0 (List.length fs)

let test_hot_alloc_ok_escape () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "type r = { a : int }\nlet[@hot_path] f x = ({ a = x } [@alloc_ok])\n"
  in
  checki "alloc_ok honoured" 0 (List.length fs)

let test_hot_error_path_exempt () =
  let fs =
    lint ~path:"lib/net/fast.ml"
      "let[@hot_path] f x =\n\
      \  if x < 0 then invalid_arg (Printf.sprintf \"bad %d\" x) else x\n"
  in
  checki "error path exempt" 0 (List.length fs)

let test_hot_constructor_argument () =
  (* [Some (t, p)] under an [@alloc_ok] tuple still allocated the
     [Some]; a computed constructor argument is now a finding of its
     own, reported once for a nest. Static arguments and [Error]
     results (an error path) are not. *)
  let fs =
    lint ~path:"lib/sim/fast.ml"
      "let[@hot_path] f t p = Some ((t, p) [@alloc_ok])
       let[@hot_path] g x = Ok (Some x)
       let[@hot_path] h x = if x then Some 1 else Some (Ok ())
       let[@hot_path] k x = if x > 0 then Error (`Bad x) else Ok ()
"
  in
  checki "one finding per computed constructor nest" 2 (count "hot-path" fs)

let test_hot_untagged_ignored () =
  let fs =
    lint ~path:"lib/net/slow.ml" "let f xs = List.map (fun x -> x + 1) xs\n"
  in
  checki "untagged function unrestricted" 0 (List.length fs)

(* --- pool discipline ----------------------------------------------- *)

let test_pool_unpaired_acquire () =
  let fs =
    lint ~path:"lib/nic/drv.ml" "let grab pool = Pool.acquire pool\n"
  in
  checki "pool-discipline" 1 (count "pool-discipline" fs)

let test_pool_paired_ok () =
  let fs =
    lint ~path:"lib/nic/drv.ml"
      "let use pool f =\n\
      \  let b = Pool.acquire pool in\n\
      \  let r = f b in\n\
      \  Pool.release pool b;\n\
      \  r\n"
  in
  checki "paired acquire/release clean" 0 (count "pool-discipline" fs)

let test_pool_ownership_transfer () =
  let fs =
    lint ~path:"lib/nic/drv.ml"
      "let grab pool = (Pool.acquire pool [@ownership_transfer])\n"
  in
  checki "ownership_transfer honoured" 0 (count "pool-discipline" fs)

(* --- observability hook gating ------------------------------------- *)

let test_obs_unconditional_install () =
  (* Arming a hook with no Config consultation in lib/sim or
     lib/cluster must fire — the disarmed slot's zero cost is a
     library-wide claim. *)
  let src = "let arm sw h = Cluster.Switch.set_hooks sw (Some h)\n" in
  checki "flagged in lib/sim" 1
    (count "obs-gating" (lint ~path:"lib/sim/boot.ml" src));
  let src2 = "let arm sw h = Cluster.Switch.set_hooks sw (Some h)\n" in
  checki "flagged in lib/cluster" 1
    (count "obs-gating" (lint ~path:"lib/cluster/boot.ml" src2))

let test_obs_config_gated_ok () =
  let fs =
    lint ~path:"lib/sim/boot.ml"
      "let arm cfg sw h =\n\
      \  if cfg.Config.trace then Cluster.Switch.set_hooks sw (Some h)\n"
  in
  checki "Config-gated install clean" 0 (count "obs-gating" fs)

let test_obs_config_match_gated_ok () =
  let fs =
    lint ~path:"lib/cluster/boot.ml"
      "let arm sw h =\n\
      \  match Config.hooks () with\n\
      \  | true -> Cluster.Switch.set_hooks sw (Some h)\n\
      \  | false -> ()\n"
  in
  checki "match-on-Config install clean" 0 (count "obs-gating" fs)

let test_obs_gated_attr_escape () =
  let fs =
    lint ~path:"lib/sim/boot.ml"
      "let[@obs_gated] arm sw h = Cluster.Switch.set_hooks sw (Some h)\n\
       let bad sw cap = Cluster.Switch.tap sw ~port:0 cap\n"
  in
  checki "only the unmarked install flagged" 1 (count "obs-gating" fs)

let test_obs_tap_and_enable_flagged () =
  let fs =
    lint ~path:"lib/cluster/boot.ml"
      "let arm sw tr cap =\n\
      \  Cluster.Switch.tap sw ~port:1 cap;\n\
      \  Obs.Tracer.enable tr\n"
  in
  checki "tap + enable both flagged" 2 (count "obs-gating" fs)

let test_obs_rule_scoped_to_sim_cluster () =
  (* Experiments, harness and tests install hooks freely — the rule is
     about the library's always-on paths. *)
  let src = "let arm sw h = Cluster.Switch.set_hooks sw (Some h)\n" in
  checki "not applied in lib/experiments" 0
    (count "obs-gating" (lint ~path:"lib/experiments/e.ml" src));
  checki "not applied in test/" 0
    (count "obs-gating" (lint ~path:"test/t.ml" src))

(* --- cluster fault-seam discipline --------------------------------- *)

let test_seam_direct_call_flagged () =
  (* Arming a cluster fault seam anywhere in lib/ outside lib/fault is
     scripted chaos outside the plan. *)
  let src = "let wedge sw f = Cluster.Switch.set_port_wedge sw (Some f)\n" in
  checki "flagged in lib/cluster" 1
    (count "fault-seam" (lint ~path:"lib/cluster/boot.ml" src));
  checki "flagged in lib/experiments" 1
    (count "fault-seam" (lint ~path:"lib/experiments/e.ml" src));
  let src2 = "let cut fb p = Cluster.Fabric.set_link_fault fb (Some p)\n" in
  checki "set_link_fault flagged" 1
    (count "fault-seam" (lint ~path:"lib/harness/h.ml" src2))

let test_seam_all_entry_points () =
  let src =
    "let chaos sw fb ctl f =\n\
    \  Cluster.Switch.set_port_wedge sw (Some f);\n\
    \  Cluster.Switch.set_brownout sw None;\n\
    \  Cluster.Switch.set_partition sw None;\n\
    \  Cluster.Fabric.set_link_fault fb None;\n\
    \  Cluster.Control.crash ctl;\n\
    \  Cluster.Control.restart ctl\n"
  in
  checki "all six seams flagged" 6
    (count "fault-seam" (lint ~path:"lib/cluster/boot.ml" src))

let test_seam_fault_dir_exempt () =
  (* lib/fault (Rack_chaos) is the sanctioned installer. *)
  let src = "let arm sw f = Cluster.Switch.set_partition sw (Some f)\n" in
  checki "lib/fault exempt" 0
    (count "fault-seam" (lint ~path:"lib/fault/rack_chaos.ml" src));
  checki "test/ exempt" 0 (count "fault-seam" (lint ~path:"test/t.ml" src))

let test_seam_attr_escape () =
  (* Reviewed plumbing — a wrapper forwarding to a seam — carries
     [@fault_seam]. *)
  let fs =
    lint ~path:"lib/cluster/fb.ml"
      "let[@fault_seam] forward fb p = Cluster.Fabric.set_link_fault fb p\n\
       let bad ctl = Cluster.Control.crash ctl\n"
  in
  checki "only the unmarked call flagged" 1 (count "fault-seam" fs)

(* --- steer-seam ---------------------------------------------------- *)

let test_steer_seam_flagged () =
  (* Raw NIC dispatch-table writes outside lib/nic bypass the static
     verifier — the whole point of Steer_verify.install. *)
  let src = "let pin nic = Nic.Dma_nic.set_steering nic (fun _ -> 0)\n" in
  let fs = lint ~path:"lib/cluster/boot.ml" src in
  checki "flagged" 1 (count "steer-seam" fs);
  checkb "names the sanctioned path" true
    (List.exists
       (fun f ->
         String.equal f.Simlint.rule "steer-seam"
         && String.length f.Simlint.msg > 0)
       fs)

let test_steer_seam_exemptions () =
  let src = "let pin nic = Dma_nic.set_steering nic (fun _ -> 0)\n" in
  checki "lib/nic exempt (owns the seam)" 0
    (count "steer-seam" (lint ~path:"lib/nic/steer_verify.ml" src));
  checki "test/ exempt" 0 (count "steer-seam" (lint ~path:"test/t.ml" src));
  checki "bin/ exempt" 0 (count "steer-seam" (lint ~path:"bin/x.ml" src))

let test_steer_seam_attr_escape () =
  (* The reviewed legacy port->queue table in the bypass stack. *)
  let fs =
    lint ~path:"lib/baseline/bypass.ml"
      "let legacy nic f = (Nic.Dma_nic.set_steering nic f [@steer_seam])\n\
       let bad nic f = Nic.Dma_nic.set_steering nic f\n"
  in
  checki "only the unmarked call flagged" 1 (count "steer-seam" fs)

(* --- the repo itself is lint-clean --------------------------------- *)

let test_repo_lib_clean () =
  (* The dune @lint alias enforces this at build time; this test pins it
     from the test suite too so `dune runtest` alone catches drift.
     Resolve lib/ relative to the dune workspace root. *)
  let rec find_lib dir depth =
    if depth > 6 then None
    else
      let cand = Filename.concat dir "lib" in
      if
        Sys.file_exists cand && Sys.is_directory cand
        && Sys.file_exists (Filename.concat cand "simlint")
      then Some cand
      else find_lib (Filename.concat dir "..") (depth + 1)
  in
  match find_lib (Sys.getcwd ()) 0 with
  | None -> ()  (* sandboxed layout without sources; @lint still covers it *)
  | Some lib ->
      let fs = Simlint.run [ lib ] in
      List.iter
        (fun f -> Format.eprintf "%a@." Simlint.pp_finding f)
        fs;
      checki "lib/ is lint-clean" 0 (List.length fs)

(* --- finding metadata ---------------------------------------------- *)

let test_finding_positions () =
  let fs =
    lint ~path:"lib/core/x.ml" "let a = 1\nlet same a b = a = b\n"
  in
  match fs with
  | [ f ] ->
      checki "line" 2 f.Simlint.line;
      Alcotest.check Alcotest.string "rule" "polymorphic-compare"
        f.Simlint.rule
  | fs ->
      Alcotest.failf "expected exactly one finding, got %d (%s)"
        (List.length fs)
        (String.concat ", " (rules_of fs))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "simlint"
    [
      ( "nondeterminism",
        [
          tc "global Random flagged" test_nondet_random;
          tc "Unix clock flagged" test_nondet_unix_clock;
          tc "randomized Hashtbl flagged" test_nondet_randomized_hashtbl;
          tc "lib/fault exempt" test_nondet_allowed_in_fault;
          tc "Domain/Mutex/Atomic flagged" test_nondet_domain_flagged;
          tc "[@nondet_ok] binding escape" test_nondet_ok_binding_escape;
          tc "[@nondet_ok] expression escape" test_nondet_ok_expression_escape;
          tc "[@nondet_ok] nested binding" test_nondet_ok_nested_binding;
          tc "seeded Sim.Rng clean" test_nondet_sim_rng_clean;
        ] );
      ( "polymorphic-compare",
        [
          tc "= flagged" test_poly_eq_flagged;
          tc "literal operand exempt" test_poly_literal_exempt;
          tc "List.mem flagged" test_poly_list_mem;
          tc "scoped to core dirs" test_poly_scoped_to_core_dirs;
        ] );
      ( "hot-path",
        [
          tc "anonymous closure" test_hot_closure;
          tc "tuple/record/list cells" test_hot_tuple_record_list;
          tc "string building" test_hot_string_building;
          tc "partial application" test_hot_partial_application;
          tc "optional args are not partial" test_hot_optional_args_not_partial;
          tc "[@alloc_ok] escape" test_hot_alloc_ok_escape;
          tc "error paths exempt" test_hot_error_path_exempt;
          tc "computed constructor argument" test_hot_constructor_argument;
          tc "untagged unrestricted" test_hot_untagged_ignored;
        ] );
      ( "pool-discipline",
        [
          tc "unpaired acquire" test_pool_unpaired_acquire;
          tc "paired clean" test_pool_paired_ok;
          tc "[@ownership_transfer]" test_pool_ownership_transfer;
        ] );
      ( "obs-gating",
        [
          tc "unconditional install flagged" test_obs_unconditional_install;
          tc "Config-gated if clean" test_obs_config_gated_ok;
          tc "Config-gated match clean" test_obs_config_match_gated_ok;
          tc "[@obs_gated] escape" test_obs_gated_attr_escape;
          tc "tap and enable flagged" test_obs_tap_and_enable_flagged;
          tc "scoped to lib/sim + lib/cluster" test_obs_rule_scoped_to_sim_cluster;
        ] );
      ( "fault-seam",
        [
          tc "direct seam call flagged" test_seam_direct_call_flagged;
          tc "every entry point flagged" test_seam_all_entry_points;
          tc "lib/fault and test/ exempt" test_seam_fault_dir_exempt;
          tc "[@fault_seam] escape" test_seam_attr_escape;
        ] );
      ( "steer-seam",
        [
          tc "raw set_steering flagged" test_steer_seam_flagged;
          tc "lib/nic, test/, bin/ exempt" test_steer_seam_exemptions;
          tc "[@steer_seam] escape" test_steer_seam_attr_escape;
        ] );
      ( "repo",
        [
          tc "lib/ lint-clean" test_repo_lib_clean;
          tc "finding positions" test_finding_positions;
        ] );
    ]
