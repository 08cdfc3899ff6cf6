(* Build-time steering-program gate: verify every shipped program under
   the default NIC environment. Any rejection is a build error — wired
   into `dune build @check` (scripts/gates.sh). *)

let () =
  let env = Nic.Steer_verify.default_env in
  let failed = ref 0 in
  List.iter
    (fun (p : Nic.Steer.t) ->
      match Nic.Steer_verify.verify ~env p with
      | Ok v ->
          Printf.printf "steer_verify: %-16s PASS (static cost %d ns)\n"
            p.Nic.Steer.name (Nic.Steer_verify.cost v)
      | Error diags ->
          incr failed;
          Printf.printf "steer_verify: %-16s REJECTED\n" p.Nic.Steer.name;
          List.iter (fun d -> Printf.printf "  %s\n" d) diags)
    Nic.Steer.builtins;
  Printf.printf "steer_verify: %d program(s), %d rejected\n"
    (List.length Nic.Steer.builtins) !failed;
  if !failed > 0 then exit 1
