(* The benchmark harness: regenerates every figure and quantitative
   claim of "The NIC should be part of the OS" (HotOS '25).

   Usage:
     dune exec bench/main.exe            # run every experiment
     dune exec bench/main.exe -- fig2 e7 # run selected sections

   Section ids follow DESIGN.md's experiment index.

   When the [micro] section runs, its rows are also written to
   BENCH_1.json in the invocation directory — a machine-readable
   record (name, ns/run, r²) so hot-path regressions can be diffed
   across commits without parsing the pretty table. *)

let bench_json_file = "BENCH_1.json"

let write_bench_json rows =
  let num f = if Float.is_finite f then Obs.Json.Float f else Obs.Json.Null in
  let row (name, ns, r2) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        ("ns_per_run", num ns);
        ("r_square", num r2);
      ]
  in
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "lauberhorn-microbench-v1");
        ("unit", Obs.Json.Str "ns/run");
        ("rows", Obs.Json.List (List.map row rows));
      ]
  in
  let oc = open_out bench_json_file in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s (%d rows)@." bench_json_file (List.length rows)

let sections = Experiments.Sections.all @ [ ("micro", Micro.run) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  Format.printf
    "Lauberhorn reproduction harness - \"The NIC should be part of the OS\" (HotOS '25)@.";
  Format.printf "Sections: %s@." (String.concat " " requested);
  List.iter
    (fun id ->
      match List.assoc_opt id sections with
      | Some run -> run ()
      | None ->
          Format.printf "unknown section %S; known: %s@." id
            (String.concat ", " (List.map fst sections)))
    requested;
  (match !Micro.json_rows with
  | [] -> ()
  | rows -> write_bench_json rows);
  Format.printf "@.all requested sections finished.@."
