(* lauberhorn-figures: regenerate the experiments of the reproduction by
   id, in the order given, or every section in [Sections.all] order when
   none is named. Exits 1, naming the failed claims on stderr, when a
   paper claim a section checked does not hold. *)

open Cmdliner

let section_arg =
  let section_conv = Arg.enum Experiments.Sections.all in
  let doc =
    Printf.sprintf "Experiment to run: %s. Runs every one when none is given."
      (String.concat ", " (List.map fst Experiments.Sections.all))
  in
  Arg.(value & pos_all section_conv [] & info [] ~docv:"EXPERIMENT" ~doc)

(* Runs every named section first, then names each claim that failed
   on stderr: stdout is the sections' alone, whatever the verdicts. *)
let run fns =
  let fns =
    match fns with [] -> List.map snd Experiments.Sections.all | _ -> fns
  in
  let failed =
    List.concat_map
      (fun f -> List.filter (fun c -> not c.Experiments.Common.holds) (f ()))
      fns
  in
  List.iter
    (fun c ->
      Format.eprintf "lauberhorn-figures: claim %s does not hold@."
        c.Experiments.Common.id)
    failed;
  match failed with [] -> 0 | _ :: _ -> 1

let cmd =
  let doc = "regenerate the figures and experiments of the reproduction" in
  let exits =
    Cmd.Exit.info 1 ~doc:"when a paper claim a section checked does not hold."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "lauberhorn-figures" ~doc ~exits)
    Term.(const run $ section_arg)

let () = exit (Cmd.eval' cmd)
