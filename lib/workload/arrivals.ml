let open_loop_trace engine rng ~interarrival ~until fire =
  (match Dist.validate interarrival with
  | Ok () -> ()
  | Error e -> invalid_arg ("Arrivals.open_loop_trace: " ^ e));
  let seq = ref 0 in
  (* One arrival event closure for the whole run, not one per arrival. *)
  let rec next () =
    let gap = Dist.sample_int interarrival rng in
    let at = Sim.Engine.now engine + Int.max 1 gap in
    if at <= until then ignore (Sim.Engine.schedule_at engine ~at arrive)
  and arrive () =
    let s = !seq in
    incr seq;
    fire ~seq:s;
    next ()
  in
  next ()

let open_loop engine rng ~rate_per_s ~until fire =
  if rate_per_s <= 0. then invalid_arg "Arrivals.open_loop: rate <= 0";
  let mean_ns = 1e9 /. rate_per_s in
  open_loop_trace engine rng ~interarrival:(Dist.Exponential mean_ns) ~until
    fire

let step_rates engine rng ~steps fire =
  if steps = [] then invalid_arg "Arrivals.step_rates: no steps";
  let seq = ref 0 in
  let rec play segs seg_end =
    match segs with
    | [] -> ()
    | (hold, rate) :: rest ->
        if rate < 0. || hold < 0 then
          invalid_arg "Arrivals.step_rates: negative step";
        let seg_end = seg_end + hold in
        let rec next () =
          let now = Sim.Engine.now engine in
          let gap =
            if rate = 0. then seg_end - now + 1
            else
              Int.max 1
                (int_of_float
                   (Float.round (Sim.Rng.exponential rng ~mean:(1e9 /. rate))))
          in
          let at = now + gap in
          if at < seg_end then
            ignore
              (Sim.Engine.schedule_at engine ~at (fun () ->
                   let s = !seq in
                   incr seq;
                   fire ~seq:s;
                   next ()))
          else
            ignore
              (Sim.Engine.schedule_at engine ~at:seg_end (fun () ->
                   play rest seg_end))
        in
        next ()
  in
  play steps (Sim.Engine.now engine)

let closed_loop engine rng ~clients ~think_time ~send ~until =
  if clients <= 0 then invalid_arg "Arrivals.closed_loop: clients <= 0";
  let seq = ref 0 in
  let rec client_loop () =
    if Sim.Engine.now engine < until then begin
      let s = !seq in
      incr seq;
      send ~seq:s ~done_:(fun () ->
          let think = Dist.sample_int think_time rng in
          if Sim.Engine.now engine + think < until then
            ignore
              (Sim.Engine.schedule_after engine ~after:(max 0 think)
                 client_loop))
    end
  in
  for _ = 1 to clients do
    client_loop ()
  done
