(* lauberhorn-figures: regenerate a single experiment by id (the bench
   executable runs them all; this gives scripted access to one). *)

open Cmdliner

let section_arg =
  let section_conv = Arg.enum Experiments.Sections.all in
  let doc =
    Printf.sprintf "Experiment to run: %s."
      (String.concat ", " (List.map fst Experiments.Sections.all))
  in
  Arg.(non_empty & pos_all section_conv [] & info [] ~docv:"EXPERIMENT" ~doc)

let run fns =
  List.iter (fun f -> f ()) fns;
  0

let cmd =
  let doc = "regenerate one figure/experiment of the reproduction" in
  Cmd.v (Cmd.info "lauberhorn-figures" ~doc) Term.(const run $ section_arg)

let () = exit (Cmd.eval' cmd)
