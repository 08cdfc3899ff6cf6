(* Cross-tracer causal assembly: one tracer per shard (host planes,
   the switch/uplink plane), one trace id per RPC, and a pure
   function of the collected spans that rebuilds each RPC's global
   stage chain. No tracer state ever crosses a shard boundary during
   the run — stitching is entirely post-hoc, so it composes with the
   PDES determinism contract for free. *)

type stage = { plane : string; span : Span.t }

type t = {
  trace : int;
  root : Span.t;
  stages : stage list;
  contiguous : bool;
  stage_sum : int;
}

let duration (s : Span.t) = s.Span.end_time - s.Span.start_time

let contiguous_chain (root : Span.t) stages =
  match stages with
  | [] -> false
  | first :: _ ->
      let rec walk at = function
        | [] -> at = root.Span.end_time
        | st :: rest ->
            st.span.Span.start_time = at && walk st.span.Span.end_time rest
      in
      first.span.Span.start_time = root.Span.start_time
      && walk root.Span.start_time stages

let assemble ~root:root_tracer ~parts =
  (* The root plane owns the causal roots: one closed parentless span
     per completed RPC (a re-begun trace keeps only its last root,
     matching Tracer.stages_of). Host-side roots live in [parts] and
     are views of the same interval their children tile — only their
     children join the chain. *)
  let roots = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.t) -> Hashtbl.replace roots s.Span.trace_id s)
    (Tracer.roots root_tracer);
  let stages_of_trace : (int, stage list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (plane, tracer) ->
      List.iter
        (fun (s : Span.t) ->
          if
            s.Span.kind = Span.Interval
            && s.Span.parent <> Span.no_parent
            && Span.is_closed s
            && Hashtbl.mem roots s.Span.trace_id
          then
            Hashtbl.replace stages_of_trace s.Span.trace_id
              ({ plane; span = s }
              :: (try Hashtbl.find stages_of_trace s.Span.trace_id
                  with Not_found -> [])))
        (Tracer.spans tracer))
    (("", root_tracer) :: parts);
  let traces =
    List.sort Int.compare
      (Hashtbl.fold (fun trace _ acc -> trace :: acc) roots [])
  in
  List.map
    (fun trace ->
      let root = Hashtbl.find roots trace in
      let stages =
        (* Emission order within a plane and plane list order are both
           deterministic, so the stable sort's tie-break is too. *)
        List.stable_sort
          (fun a b ->
            let c =
              Int.compare a.span.Span.start_time b.span.Span.start_time
            in
            if c <> 0 then c
            else Int.compare a.span.Span.end_time b.span.Span.end_time)
          (List.rev
             (try Hashtbl.find stages_of_trace trace with Not_found -> []))
      in
      let stage_sum =
        List.fold_left (fun acc st -> acc + duration st.span) 0 stages
      in
      { trace; root; stages; contiguous = contiguous_chain root stages;
        stage_sum })
    traces

let exact t = t.contiguous && t.stage_sum = duration t.root
