(* lauberhorn-figures: regenerate the experiments of the reproduction by
   id, in the order given, or every section in [Sections.all] order when
   none is named. *)

open Cmdliner

let section_arg =
  let section_conv = Arg.enum Experiments.Sections.all in
  let doc =
    Printf.sprintf "Experiment to run: %s. Runs every one when none is given."
      (String.concat ", " (List.map fst Experiments.Sections.all))
  in
  Arg.(value & pos_all section_conv [] & info [] ~docv:"EXPERIMENT" ~doc)

let run fns =
  let fns =
    match fns with [] -> List.map snd Experiments.Sections.all | _ -> fns
  in
  List.iter (fun f -> f ()) fns;
  0

let cmd =
  let doc = "regenerate the figures and experiments of the reproduction" in
  Cmd.v (Cmd.info "lauberhorn-figures" ~doc) Term.(const run $ section_arg)

let () = exit (Cmd.eval' cmd)
