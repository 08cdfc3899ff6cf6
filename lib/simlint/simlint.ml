type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg

type rules = {
  nondet : bool;
  poly_compare : bool;
  hot_path : bool;
  pool : bool;
  obs_gating : bool;
  fault_seam : bool;
  steer_seam : bool;
}

(* Path classification is purely textual so the linter behaves the same
   from the repo root, from a dune sandbox, and on test fixtures. *)
let has_segment path seg =
  let norm = String.concat "/" (String.split_on_char '\\' path) in
  let parts = String.split_on_char '/' norm in
  List.exists (fun p -> String.equal p seg) parts

let rules_for_path path =
  if Filename.check_suffix path ".mli" then
    {
      nondet = false;
      poly_compare = false;
      hot_path = true;
      pool = true;
      obs_gating = false;
      fault_seam = false;
      steer_seam = false;
    }
  else
    let in_lib = has_segment path "lib" in
    let nondet = in_lib && not (has_segment path "fault") in
    let poly_compare =
      in_lib
      && (has_segment path "core" || has_segment path "coherence"
         || has_segment path "net" || has_segment path "sim"
         || has_segment path "baseline" || has_segment path "harness")
    in
    let obs_gating =
      in_lib && (has_segment path "sim" || has_segment path "cluster")
    in
    (* lib/fault (Rack_chaos) is the sanctioned installer; everything
       else in lib/ must not touch the cluster fault seams *)
    let fault_seam = in_lib && not (has_segment path "fault") in
    (* lib/nic owns the dispatch table; everywhere else in lib/ the raw
       write must go through the verified install path *)
    let steer_seam = in_lib && not (has_segment path "nic") in
    {
      nondet;
      poly_compare;
      hot_path = true;
      pool = true;
      obs_gating;
      fault_seam;
      steer_seam;
    }

(* ---------- AST helpers ---------- *)

open Parsetree

let lid_parts lid = Longident.flatten lid

let has_attr name attrs =
  List.exists (fun a -> String.equal a.attr_name.Location.txt name) attrs

(* A [Module.fn] reference, matched on its last module component and
   value name so aliases like [Net.Pool.acquire] still match. *)
let is_mod_fn lid ~m ~fn =
  match lid with
  | Longident.Ldot (path, f) when String.equal f fn -> (
      match List.rev (Longident.flatten path) with
      | last :: _ -> String.equal last m
      | [] -> false)
  | _ -> false

(* ---------- per-file analysis ---------- *)

type ctx = {
  path : string;
  rules : rules;
  mutable findings : finding list;
  (* arities of this file's top-level functions, for the syntactic
     partial-application check inside [@hot_path] bodies *)
  arities : (string, int) Hashtbl.t;
  (* character offsets of =/<> uses exempted by a literal operand *)
  exempt : (int, unit) Hashtbl.t;
  (* [@nondet_ok] character spans: deliberate, reviewed nondeterminism
     (wall-clock reporting) *)
  mutable nondet_ok : (int * int) list;
  (* spans in which observability hooks may be installed: any
     if/match whose scrutinee consults a Config, plus explicit
     [@obs_gated] marks *)
  mutable obs_gated : (int * int) list;
  (* [@fault_seam] spans: reviewed cluster-fault plumbing (the seam
     definitions themselves, and lib/fault's installers) *)
  mutable fault_seam_ok : (int * int) list;
  (* [@steer_seam] spans: reviewed raw dispatch-table writes outside
     lib/nic (legacy port→queue plumbing that predates the verified
     steering path) *)
  mutable steer_seam_ok : (int * int) list;
}

let in_nondet_ok ctx (loc : Location.t) =
  let p = loc.Location.loc_start.Lexing.pos_cnum in
  List.exists (fun (s, e) -> p >= s && p < e) ctx.nondet_ok

let in_obs_gated ctx (loc : Location.t) =
  let p = loc.Location.loc_start.Lexing.pos_cnum in
  List.exists (fun (s, e) -> p >= s && p < e) ctx.obs_gated

let in_fault_seam_ok ctx (loc : Location.t) =
  let p = loc.Location.loc_start.Lexing.pos_cnum in
  List.exists (fun (s, e) -> p >= s && p < e) ctx.fault_seam_ok

let in_steer_seam_ok ctx (loc : Location.t) =
  let p = loc.Location.loc_start.Lexing.pos_cnum in
  List.exists (fun (s, e) -> p >= s && p < e) ctx.steer_seam_ok

let report ctx ~loc ~rule fmt =
  let pos = loc.Location.loc_start in
  Format.kasprintf
    (fun msg ->
      ctx.findings <-
        {
          file = ctx.path;
          line = pos.Lexing.pos_lnum;
          col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
          rule;
          msg;
        }
        :: ctx.findings)
    fmt

(* ---------- rule: nondeterminism ---------- *)

let nondet_diagnosis lid =
  match lid_parts lid with
  | "Unix" :: _ ->
      Some "Unix.* (wall clock / ambient OS state) is off-limits in lib/"
  | [ "Sys"; "time" ] -> Some "Sys.time reads the wall clock"
  | [ "Hashtbl"; "randomize" ] -> Some "Hashtbl.randomize breaks determinism"
  | ("Domain" | "Thread" | "Mutex" | "Condition" | "Semaphore" | "Atomic")
    :: _ ->
      Some
        (Printf.sprintf
           "%s.* is thread-scheduling-dependent and banned in lib/, which \
            runs in one domain"
           (List.hd (lid_parts lid)))
  | "Random" :: rest -> (
      match rest with
      | "State" :: more ->
          if List.exists (String.equal "make_self_init") more then
            Some "Random.State.make_self_init seeds from ambient entropy"
          else None
      | _ ->
          Some
            "the global Random PRNG is ambient mutable state; use a seeded \
             Sim.Rng (or a lib/fault plan stream)")
  | _ -> None

let check_nondet ctx ~loc lid =
  match nondet_diagnosis lid with
  | Some why ->
      if not (in_nondet_ok ctx loc) then
        report ctx ~loc ~rule:"nondeterminism" "%s" why
  | None -> ()

let check_nondet_apply ctx ~loc lid args =
  (* Hashtbl.create ~random:true — randomized bucket order. *)
  let is_hashtbl_create =
    match lid with
    | Longident.Lident "create" -> false
    | _ -> is_mod_fn lid ~m:"Hashtbl" ~fn:"create"
  in
  if is_hashtbl_create && not (in_nondet_ok ctx loc) then
    List.iter
      (fun (label, (arg : expression)) ->
        match (label, arg.pexp_desc) with
        | ( Asttypes.Labelled "random",
            Pexp_construct
              ({ Location.txt = Longident.Lident "false"; _ }, None) ) ->
            ()
        | Asttypes.Labelled "random", _ ->
            report ctx ~loc ~rule:"nondeterminism"
              "Hashtbl.create ~random randomizes iteration order"
        | _ -> ())
      args

(* ---------- rule: polymorphic compare ---------- *)

let is_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct
      ({ Location.txt = Longident.Lident ("true" | "false"); _ }, None) ->
      true
  | _ -> false

let poly_fn_name lid =
  match lid with
  | Longident.Lident (("=" | "<>" | "compare") as n) -> Some n
  | Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>" | "compare") as n))
    ->
      Some n
  | _ -> if is_mod_fn lid ~m:"Hashtbl" ~fn:"hash" then Some "Hashtbl.hash"
         else None

let list_poly_fn lid =
  match lid with
  | Longident.Ldot (Longident.Lident "List", f)
    when List.exists (String.equal f)
           [ "mem"; "assoc"; "assoc_opt"; "mem_assoc"; "remove_assoc" ] ->
      Some ("List." ^ f)
  | _ -> None

let check_poly_use ctx ~loc lid =
  match poly_fn_name lid with
  | Some (("=" | "<>") as op) ->
      report ctx ~loc ~rule:"polymorphic-compare"
        "polymorphic (%s): use a typed comparator (Int.equal, String.equal, \
         Option.is_none, ...)"
        op
  | Some fn ->
      report ctx ~loc ~rule:"polymorphic-compare"
        "%s is the polymorphic structural %s; use a typed one" fn
        (if String.equal fn "Hashtbl.hash" then "hash" else "compare")
  | None -> (
      match list_poly_fn lid with
      | Some fn ->
          report ctx ~loc ~rule:"polymorphic-compare"
            "%s compares with polymorphic equality internally; use \
             List.exists/List.find with a typed comparator"
            fn
      | None -> ())

(* ---------- rule: hot-path allocation discipline ---------- *)

let string_builders =
  [
    ( "String",
      [ "make"; "init"; "concat"; "sub"; "cat"; "of_bytes"; "map" ] );
    ( "Bytes",
      [
        "create"; "make"; "init"; "sub"; "sub_string"; "cat"; "concat";
        "of_string"; "to_string"; "copy"; "extend";
      ] );
    ("Printf", [ "sprintf" ]);
    ("Format", [ "sprintf"; "asprintf" ]);
  ]

let alloc_call_diagnosis lid =
  match lid with
  | Longident.Lident "^" -> Some "string concatenation (^) allocates"
  | Longident.Lident "@" -> Some "list append (@) allocates"
  | Longident.Ldot (Longident.Lident m, f) -> (
      match List.assoc_opt m string_builders with
      | Some fns when List.exists (String.equal f) fns ->
          Some (Printf.sprintf "%s.%s builds a fresh string/bytes" m f)
      | _ -> None)
  | _ -> None

let is_error_path lid =
  match lid with
  | Longident.Lident ("raise" | "raise_notrace" | "invalid_arg" | "failwith")
    ->
      true
  | Longident.Ldot (_, ("raise" | "invalid_arg" | "failwith")) -> true
  | _ -> false

(* Strip the leading parameter chain of a function body: those [fun]
   nodes are the function itself, not closures it builds. *)
let rec strip_params (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | _ -> e

(* Optional parameters are excluded: omitting one at a call site goes
   through default elimination, not closure construction. *)
let rec arity_of (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Optional _, _, _, body) -> arity_of body
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_newtype (_, body) -> arity_of body
  | _ -> 0

(* Constants, and constructors or tuples built only from them, are
   structured constants the compiler allocates once, statically. *)
let rec is_static (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ | Pexp_construct (_, None) | Pexp_variant (_, None) ->
      true
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> is_static a
  | Pexp_tuple es -> List.for_all is_static es
  | _ -> false

(* The innermost argument of nested constructors, which were reported
   with the outermost one. *)
let rec inner_of_constructs (e : expression) =
  match e.pexp_desc with
  | (Pexp_construct (_, Some a) | Pexp_variant (_, Some a))
    when not (has_attr "alloc_ok" e.pexp_attributes) ->
      inner_of_constructs a
  | _ -> e

let rec check_hot ctx (e : expression) =
  let loc = e.pexp_loc in
  if has_attr "alloc_ok" e.pexp_attributes then ()
  else
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        report ctx ~loc ~rule:"hot-path"
          "anonymous closure allocated in a [@hot_path] body (let-bind it, \
           hoist it, or mark [@alloc_ok])"
    | Pexp_tuple parts ->
        report ctx ~loc ~rule:"hot-path"
          "tuple construction allocates in a [@hot_path] body";
        List.iter (check_hot ctx) parts
    | Pexp_record (fields, base) ->
        report ctx ~loc ~rule:"hot-path"
          "record construction allocates in a [@hot_path] body";
        List.iter (fun (_, v) -> check_hot ctx v) fields;
        Option.iter (check_hot ctx) base
    | Pexp_construct ({ Location.txt = Longident.Lident "::"; _ }, Some arg) ->
        report ctx ~loc ~rule:"hot-path"
          "list cell construction allocates in a [@hot_path] body";
        check_hot ctx arg
    | Pexp_construct ({ Location.txt = Longident.Lident "Error"; _ }, _) ->
        ()  (* an [Error] result is an error path, like [raise] *)
    | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg)
      when not (is_static arg) ->
        report ctx ~loc ~rule:"hot-path"
          "constructor with a computed argument ([Some x], [Ok x], ...) \
           allocates in a [@hot_path] body";
        check_hot ctx (inner_of_constructs arg)
    | Pexp_apply ({ pexp_desc = Pexp_ident { Location.txt = lid; _ }; _ }, _)
      when is_error_path lid ->
        ()  (* error paths may allocate their diagnostics *)
    | Pexp_apply
        (({ pexp_desc = Pexp_ident { Location.txt = lid; _ }; _ } as fn), args)
      ->
        (match alloc_call_diagnosis lid with
        | Some why -> report ctx ~loc ~rule:"hot-path" "%s" why
        | None -> ());
        (match lid with
        | Longident.Lident name -> (
            match Hashtbl.find_opt ctx.arities name with
            | Some arity when List.length args < arity ->
                report ctx ~loc ~rule:"hot-path"
                  "partial application of %s (%d of %d args) allocates a \
                   closure"
                  name (List.length args) arity
            | _ -> ())
        | _ -> ());
        check_hot ctx fn;
        List.iter (fun (_, a) -> check_hot ctx a) args
    | Pexp_let (_, bindings, body) ->
        (* Named local helpers are fine (closed local functions are
           statically allocated); still lint their bodies. *)
        List.iter (fun vb -> check_hot ctx (strip_params vb.pvb_expr)) bindings;
        check_hot ctx body
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ sub -> check_hot ctx sub);
          }
        in
        Ast_iterator.default_iterator.expr it e

(* ---------- rule: observability hook gating ---------- *)

(* Hook-installation entry points of the tracing plane. The
   disarmed slots cost one load-and-branch on hot paths, so arming one
   from inside lib/sim or lib/cluster must be conditional on a Config
   consultation (or carry a reviewed [@obs_gated] mark) — an
   unconditional install would falsify the "zero-cost when off" claim
   for every user of the library. *)
let obs_hook_diagnosis lid =
  if is_mod_fn lid ~m:"Switch" ~fn:"set_hooks" then
    Some "Switch.set_hooks"
  else if is_mod_fn lid ~m:"Switch" ~fn:"tap" then Some "Switch.tap"
  else if is_mod_fn lid ~m:"Tracer" ~fn:"enable" then Some "Tracer.enable"
  else None

(* ---------- rule: cluster fault-seam discipline ---------- *)

(* The cluster fault seams: entry points that mutate fault state in
   the rack machinery. Only lib/fault (the Rack_chaos driver compiling
   a Fault.Plan) may arm them — a direct call anywhere else in lib/
   is scripted chaos outside the plan, invisible to the determinism
   and conservation contracts. The seam definitions themselves (and
   any reviewed plumbing) carry a [@fault_seam] mark. *)
let fault_seam_diagnosis lid =
  if is_mod_fn lid ~m:"Switch" ~fn:"set_port_wedge" then
    Some "Switch.set_port_wedge"
  else if is_mod_fn lid ~m:"Switch" ~fn:"set_brownout" then
    Some "Switch.set_brownout"
  else if is_mod_fn lid ~m:"Switch" ~fn:"set_partition" then
    Some "Switch.set_partition"
  else if is_mod_fn lid ~m:"Fabric" ~fn:"set_link_fault" then
    Some "Fabric.set_link_fault"
  else if is_mod_fn lid ~m:"Control" ~fn:"crash" then Some "Control.crash"
  else if is_mod_fn lid ~m:"Control" ~fn:"restart" then Some "Control.restart"
  else None

(* ---------- rule: steering-seam discipline ---------- *)

(* [Dma_nic.set_steering] is the raw dispatch-table write. Outside
   lib/nic a program must be verified first (Steer_verify.verify) and
   installed through Steer_verify.install, which alone can charge the
   statically proven per-packet cost; a direct call skips the totality
   / target-validity / cost proofs. Reviewed legacy plumbing carries a
   [@steer_seam] mark. *)
let steer_seam_diagnosis lid =
  if is_mod_fn lid ~m:"Dma_nic" ~fn:"set_steering" then
    Some "Dma_nic.set_steering"
  else None

(* Does the expression consult a [Config] module anywhere (ident or
   record-field access through a Config-qualified label)? *)
let expr_mentions_config (e : expression) =
  let found = ref false in
  let note lid =
    if List.exists (String.equal "Config") (lid_parts lid) then found := true
  in
  let expr it (sub : expression) =
    (match sub.pexp_desc with
    | Pexp_ident { Location.txt = lid; _ } -> note lid
    | Pexp_field (_, { Location.txt = lid; _ }) -> note lid
    | _ -> ());
    Ast_iterator.default_iterator.expr it sub
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* ---------- rule: pool acquire/release pairing ---------- *)

type pool_scan = {
  mutable acquires : Location.t list;
  mutable releases : int;
  mutable transfer : bool;
}

let scan_pool scan vb =
  if has_attr "ownership_transfer" vb.pvb_attributes then scan.transfer <- true;
  let expr it (e : expression) =
    if has_attr "ownership_transfer" e.pexp_attributes then
      scan.transfer <- true;
    (match e.pexp_desc with
    | Pexp_ident { Location.txt = lid; _ } ->
        if is_mod_fn lid ~m:"Pool" ~fn:"acquire" then
          scan.acquires <- e.pexp_loc :: scan.acquires
        else if is_mod_fn lid ~m:"Pool" ~fn:"release" then
          scan.releases <- scan.releases + 1
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it vb.pvb_expr

(* ---------- traversal ---------- *)

let binding_name vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { Location.txt = name; _ } -> Some name
  | _ -> None

let check_structure ctx (str : structure) =
  (* First pass: top-level function arities for the partial-application
     heuristic, and [@nondet_ok] spans (the attribute scopes its whole
     binding or expression) so the nondet rule can honour escapes that
     appear later in the same traversal. *)
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.iter
            (fun vb ->
              (match binding_name vb with
              | Some name ->
                  let a = arity_of vb.pvb_expr in
                  if a > 0 then Hashtbl.replace ctx.arities name a
              | None -> ());
              if has_attr "nondet_ok" vb.pvb_attributes then
                ctx.nondet_ok <-
                  ( vb.pvb_loc.Location.loc_start.Lexing.pos_cnum,
                    vb.pvb_loc.Location.loc_end.Lexing.pos_cnum )
                  :: ctx.nondet_ok)
            bindings
      | _ -> ())
    str;
  let span_collector =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it (e : expression) ->
          if has_attr "nondet_ok" e.pexp_attributes then
            ctx.nondet_ok <-
              ( e.pexp_loc.Location.loc_start.Lexing.pos_cnum,
                e.pexp_loc.Location.loc_end.Lexing.pos_cnum )
              :: ctx.nondet_ok;
          let span () =
            ( e.pexp_loc.Location.loc_start.Lexing.pos_cnum,
              e.pexp_loc.Location.loc_end.Lexing.pos_cnum )
          in
          if has_attr "obs_gated" e.pexp_attributes then
            ctx.obs_gated <- span () :: ctx.obs_gated;
          if has_attr "fault_seam" e.pexp_attributes then
            ctx.fault_seam_ok <- span () :: ctx.fault_seam_ok;
          if has_attr "steer_seam" e.pexp_attributes then
            ctx.steer_seam_ok <- span () :: ctx.steer_seam_ok;
          (match e.pexp_desc with
          | Pexp_ifthenelse (cond, _, _) when expr_mentions_config cond ->
              ctx.obs_gated <- span () :: ctx.obs_gated
          | Pexp_match (scrut, _) when expr_mentions_config scrut ->
              ctx.obs_gated <- span () :: ctx.obs_gated
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          if has_attr "nondet_ok" vb.pvb_attributes then
            ctx.nondet_ok <-
              ( vb.pvb_loc.Location.loc_start.Lexing.pos_cnum,
                vb.pvb_loc.Location.loc_end.Lexing.pos_cnum )
              :: ctx.nondet_ok;
          if has_attr "obs_gated" vb.pvb_attributes then
            ctx.obs_gated <-
              ( vb.pvb_loc.Location.loc_start.Lexing.pos_cnum,
                vb.pvb_loc.Location.loc_end.Lexing.pos_cnum )
              :: ctx.obs_gated;
          if has_attr "fault_seam" vb.pvb_attributes then
            ctx.fault_seam_ok <-
              ( vb.pvb_loc.Location.loc_start.Lexing.pos_cnum,
                vb.pvb_loc.Location.loc_end.Lexing.pos_cnum )
              :: ctx.fault_seam_ok;
          if has_attr "steer_seam" vb.pvb_attributes then
            ctx.steer_seam_ok <-
              ( vb.pvb_loc.Location.loc_start.Lexing.pos_cnum,
                vb.pvb_loc.Location.loc_end.Lexing.pos_cnum )
              :: ctx.steer_seam_ok;
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  span_collector.structure span_collector str;
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { Location.txt = lid; _ }; pexp_loc = loc; _ },
         args) ->
        if ctx.rules.nondet then check_nondet_apply ctx ~loc lid args;
        if ctx.rules.obs_gating then (
          match obs_hook_diagnosis lid with
          | Some what when not (in_obs_gated ctx loc) ->
              report ctx ~loc ~rule:"obs-gating"
                "%s arms an observability hook unconditionally; install only \
                 under a Config-consulting branch (or mark the reviewed path \
                 [@obs_gated])"
                what
          | Some _ | None -> ());
        if ctx.rules.fault_seam then (
          match fault_seam_diagnosis lid with
          | Some what when not (in_fault_seam_ok ctx loc) ->
              report ctx ~loc ~rule:"fault-seam"
                "%s mutates cluster fault state outside lib/fault; compile \
                 the fault into a Fault.Plan and let Rack_chaos install it \
                 (or mark reviewed plumbing [@fault_seam])"
                what
          | Some _ | None -> ());
        if ctx.rules.steer_seam then (
          match steer_seam_diagnosis lid with
          | Some what when not (in_steer_seam_ok ctx loc) ->
              report ctx ~loc ~rule:"steer-seam"
                "%s writes the NIC dispatch table raw, outside lib/nic; \
                 verify the program (Steer_verify.verify) and install it \
                 through Steer_verify.install (or mark reviewed legacy \
                 plumbing [@steer_seam])"
                what
          | Some _ | None -> ());
        (* [x = 0]-style tests against a literal compile to immediate
           comparisons — exempt them before the ident pass sees the
           operator. *)
        if ctx.rules.poly_compare then (
          match poly_fn_name lid with
          | Some ("=" | "<>")
            when List.length args = 2
                 && List.exists (fun (_, a) -> is_literal a) args ->
              Hashtbl.replace ctx.exempt loc.Location.loc_start.Lexing.pos_cnum
                ()
          | _ -> ())
    | Pexp_ident { Location.txt = lid; _ } ->
        let loc = e.pexp_loc in
        if ctx.rules.nondet then check_nondet ctx ~loc lid;
        if
          ctx.rules.poly_compare
          && not (Hashtbl.mem ctx.exempt loc.Location.loc_start.Lexing.pos_cnum)
        then check_poly_use ctx ~loc lid
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_value (_, bindings) ->
        List.iter
          (fun vb ->
            if ctx.rules.hot_path && has_attr "hot_path" vb.pvb_attributes then
              check_hot ctx (strip_params vb.pvb_expr);
            if ctx.rules.pool then begin
              let scan = { acquires = []; releases = 0; transfer = false } in
              scan_pool scan vb;
              if scan.acquires <> [] && scan.releases = 0 && not scan.transfer
              then
                List.iter
                  (fun loc ->
                    report ctx ~loc ~rule:"pool-discipline"
                      "Pool.acquire with no lexically paired Pool.release in \
                       %s and no [@ownership_transfer] annotation"
                      (match binding_name vb with
                      | Some n -> n
                      | None -> "this binding"))
                  scan.acquires
            end)
          bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it item
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  it.structure it str

let check_source ~path source =
  let rules = rules_for_path path in
  if Filename.check_suffix path ".mli" then []
  else begin
    let lexbuf = Lexing.from_string source in
    lexbuf.Lexing.lex_curr_p <-
      { lexbuf.Lexing.lex_curr_p with Lexing.pos_fname = path };
    Location.input_name := path;
    let str = Parse.implementation lexbuf in
    let ctx =
      {
        path;
        rules;
        findings = [];
        arities = Hashtbl.create 16;
        exempt = Hashtbl.create 16;
        nondet_ok = [];
        obs_gated = [];
        fault_seam_ok = [];
        steer_seam_ok = [];
      }
    in
    check_structure ctx str;
    List.rev ctx.findings
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file path = check_source ~path (read_file path)

let rec walk acc path =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry -> walk acc (Filename.concat path entry))
      acc entries
  end
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let run paths =
  let files = List.rev (List.fold_left walk [] paths) in
  List.concat_map (fun f -> check_file f) files

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json f =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","msg":"%s"}|}
    (json_escape f.file) f.line f.col (json_escape f.rule) (json_escape f.msg)

let main () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let json = List.exists (String.equal "--json") args in
  let paths =
    match List.filter (fun a -> not (String.equal a "--json")) args with
    | [] -> [ "lib" ]
    | rest -> rest
  in
  let findings = run paths in
  if json then
    (* Machine-readable findings on stdout; the human lines stay on
       stderr so both can be captured independently. *)
    print_endline
      (Printf.sprintf "[%s]"
         (String.concat "," (List.map finding_to_json findings)));
  List.iter (fun f -> Format.eprintf "%a@." pp_finding f) findings;
  (* Always-printed, greppable summary — CI logs show the count even on
     a clean run. *)
  let n = List.length findings in
  Format.eprintf "simlint: %d finding%s@." n (if n = 1 then "" else "s");
  if n > 0 then exit 1
