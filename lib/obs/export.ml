let us_of_ns ns = float_of_int ns /. 1000.

let event ~pid ~name ~cat ~ph ~ts ~tid extra =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Float (us_of_ns ts));
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ extra)

let thread_name ~pid ~tid value =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]

let span_event ~pid (s : Span.t) =
  let tid = s.Span.track + 1 in
  let args =
    Json.Obj
      [
        ("rpc", Json.Str (string_of_int s.Span.trace_id));
        ("seq", Json.Int s.Span.seq);
        ("span", Json.Int s.Span.id);
        ("parent", Json.Int s.Span.parent);
      ]
  in
  match s.Span.kind with
  | Span.Instant ->
      Some
        (event ~pid ~name:s.Span.name ~cat:"event" ~ph:"i"
           ~ts:s.Span.start_time ~tid
           [ ("s", Json.Str "t"); ("args", args) ])
  | Span.Interval | Span.Detail ->
      if not (Span.is_closed s) then None
      else
        let cat =
          match s.Span.kind with
          | Span.Detail -> "detail"
          | Span.Interval ->
              if s.Span.parent = Span.no_parent then "rpc" else "stage"
          | Span.Instant -> assert false
        in
        Some
          (event ~pid ~name:s.Span.name ~cat ~ph:"X" ~ts:s.Span.start_time
             ~tid
             [
               ( "dur",
                 Json.Float (us_of_ns (s.Span.end_time - s.Span.start_time))
               );
               ("args", args);
             ])

(* One process per plane: host tracers, the switch/uplink plane and
   the control plane each get their own pid (their label as the
   process name), with that tracer's tracks as the process's threads.
   Planes appear in list order; a fixed-seed run exports byte-
   identical JSON. *)
let multi_trace_events planes =
  let meta =
    List.concat
      (List.mapi
         (fun i (label, tracer) ->
           let pid = i + 1 in
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int pid);
               ("args", Json.Obj [ ("name", Json.Str label) ]);
             ]
           :: List.mapi
                (fun t name -> thread_name ~pid ~tid:(t + 1) name)
                (Tracer.tracks tracer))
         planes)
  in
  let span_events =
    List.concat
      (List.mapi
         (fun i (_, tracer) ->
           List.filter_map (span_event ~pid:(i + 1)) (Tracer.spans tracer))
         planes)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ span_events));
      ("displayTimeUnit", Json.Str "ns");
    ]

let trace_events ?(process = "lauberhorn-sim") tracer =
  multi_trace_events [ (process, tracer) ]
