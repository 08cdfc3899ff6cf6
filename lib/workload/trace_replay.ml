type event = { at : Sim.Units.time; service_idx : int; bytes : int }

let parse_line ~lineno line =
  match String.split_on_char ',' line with
  | [ t; svc; bytes ] -> (
      match
        ( float_of_string_opt (String.trim t),
          int_of_string_opt (String.trim svc),
          int_of_string_opt (String.trim bytes) )
      with
      | Some t, Some service_idx, Some bytes
        when t >= 0. && service_idx >= 0 && bytes >= 0 ->
          Ok { at = Sim.Units.ns_of_float_us t; service_idx; bytes }
      | _ -> Error (Printf.sprintf "line %d: bad values: %s" lineno line))
  | _ -> Error (Printf.sprintf "line %d: expected 3 fields: %s" lineno line)

let parse content =
  let lines = String.split_on_char '\n' content in
  let rec go lineno acc last = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then
          go (lineno + 1) acc last rest
        else (
          match parse_line ~lineno trimmed with
          | Error _ as e -> e
          | Ok ev ->
              if ev.at < last then
                Error
                  (Printf.sprintf "line %d: time goes backwards" lineno)
              else go (lineno + 1) (ev :: acc) ev.at rest)
  in
  go 1 [] 0 lines

let to_csv events =
  let buf = Buffer.create (64 * (List.length events + 1)) in
  Buffer.add_string buf "# time_us, service_idx, bytes\n";
  List.iter
    (fun ev ->
      Buffer.add_string buf
        (Printf.sprintf "%.3f, %d, %d\n"
           (Sim.Units.to_float_us ev.at)
           ev.service_idx ev.bytes))
    events;
  Buffer.contents buf

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | content -> parse content
  | exception Sys_error msg -> Error msg

let save ~path events =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_csv events))

let synthesize rng ~duration ~rate_per_s ~services ?(zipf_s = 0.) () =
  if rate_per_s <= 0. then
    invalid_arg "Trace_replay.synthesize: rate <= 0";
  if services <= 0 then invalid_arg "Trace_replay.synthesize: services <= 0";
  let mean_gap = 1e9 /. rate_per_s in
  let zipf =
    if zipf_s > 0. then Some (Dist.Zipf.create ~n:services ~s:zipf_s) else None
  in
  let rec go now acc =
    let gap = max 1 (int_of_float (Sim.Rng.exponential rng ~mean:mean_gap)) in
    let now = now + gap in
    if now > duration then List.rev acc
    else
      let service_idx =
        match zipf with
        | Some z -> Dist.Zipf.draw z rng
        | None -> Sim.Rng.int rng ~bound:services
      in
      let bytes = Dist.sample_int Rpc_mix.small_rpc_sizes rng in
      go now ({ at = now; service_idx; bytes } :: acc)
  in
  go 0 []

let replay engine ?(offset = 0) events fire =
  if offset < 0 then invalid_arg "Trace_replay.replay: negative offset";
  let rec check last = function
    | [] -> ()
    | ev :: rest ->
        if ev.at < last then
          invalid_arg "Trace_replay.replay: events not time-sorted";
        check ev.at rest
  in
  check 0 events;
  let base = Sim.Engine.now engine + offset in
  List.iter
    (fun ev ->
      ignore
        (Sim.Engine.schedule_at engine ~at:(base + ev.at) (fun () ->
             fire ev)))
    events

let stats events =
  match events with
  | [] -> "empty trace"
  | first :: _ ->
      let n = List.length events in
      let last = List.fold_left (fun _ ev -> ev.at) first.at events in
      let span = max 1 (last - first.at) in
      let services =
        List.sort_uniq Int.compare (List.map (fun ev -> ev.service_idx) events)
      in
      let sizes = List.sort compare (List.map (fun ev -> ev.bytes) events) in
      let pct p = List.nth sizes (min (n - 1) (p * n / 100)) in
      Printf.sprintf
        "%d arrivals over %.1fms; %.0f/s mean; %d services; sizes p50=%dB p99=%dB"
        n
        (Sim.Units.to_float_ms span)
        (float_of_int n /. Sim.Units.to_float_s span)
        (List.length services) (pct 50) (pct 99)
