type cursor = { root_id : int; mutable at : Sim.Units.time }

type t = {
  mutable enabled : bool;
  mutable spans : Span.t array;  (* dense prefix of length [n] *)
  mutable n : int;
  mutable seq : int;
  mutable tracks : string array;
  mutable ntracks : int;
  cursors : (int, cursor) Hashtbl.t;
  (* opaque per-RPC trace contexts (Context.to_bytes) noted at ingress
     so the reply path can echo them onto the wire *)
  ctxs : (int, bytes) Hashtbl.t;
}

let dummy_span =
  {
    Span.id = 0;
    parent = 0;
    trace_id = 0;
    track = 0;
    name = "";
    kind = Span.Instant;
    seq = 0;
    start_time = 0;
    end_time = 0;
  }

let create () =
  {
    enabled = false;
    spans = Array.make 256 dummy_span;
    n = 0;
    seq = 0;
    tracks = Array.make 8 "";
    ntracks = 0;
    cursors = Hashtbl.create 64;
    ctxs = Hashtbl.create 64;
  }

let enable t = t.enabled <- true
let is_enabled t = t.enabled

let track t name =
  let rec find i =
    if i >= t.ntracks then begin
      if t.ntracks = Array.length t.tracks then begin
        let bigger = Array.make (2 * t.ntracks) "" in
        Array.blit t.tracks 0 bigger 0 t.ntracks;
        t.tracks <- bigger
      end;
      t.tracks.(t.ntracks) <- name;
      t.ntracks <- t.ntracks + 1;
      t.ntracks - 1
    end
    else if String.equal t.tracks.(i) name then i
    else find (i + 1)
  in
  find 0

let track_name t i =
  if i < 0 || i >= t.ntracks then invalid_arg "Tracer.track_name";
  t.tracks.(i)

let tracks t = Array.to_list (Array.sub t.tracks 0 t.ntracks)

let push t span =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy_span in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- span;
  t.n <- t.n + 1

(* Span ids are 1-based indexes into [spans]. *)
let emit t ~parent ~trace_id ~track ~name ~kind ~start ~stop =
  let id = t.n + 1 in
  let seq = t.seq in
  t.seq <- seq + 1;
  push t
    {
      Span.id;
      parent;
      trace_id;
      track;
      name;
      kind;
      seq;
      start_time = start;
      end_time = stop;
    };
  id

let rpc_begin t ~rpc ~track time =
  if t.enabled then begin
    let root_id =
      emit t ~parent:Span.no_parent ~trace_id:rpc ~track ~name:"rpc"
        ~kind:Span.Interval ~start:time ~stop:(-1)
    in
    Hashtbl.replace t.cursors rpc { root_id; at = time }
  end

let stage t ~rpc ~track ~name time =
  if t.enabled then
    match Hashtbl.find_opt t.cursors rpc with
    | None -> ()
    | Some c ->
        ignore
          (emit t ~parent:c.root_id ~trace_id:rpc ~track ~name
             ~kind:Span.Interval ~start:c.at ~stop:time);
        c.at <- time

let stage_until t ~rpc ~track ~name ~stop =
  if t.enabled then
    match Hashtbl.find_opt t.cursors rpc with
    | None -> ()
    | Some c ->
        ignore
          (emit t ~parent:c.root_id ~trace_id:rpc ~track ~name
             ~kind:Span.Interval ~start:c.at ~stop);
        c.at <- stop

let skip_to t ~rpc time =
  if t.enabled then
    match Hashtbl.find_opt t.cursors rpc with
    | None -> ()
    | Some c -> c.at <- time

let is_open t ~rpc = t.enabled && Hashtbl.mem t.cursors rpc

let root_of t ~rpc =
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.cursors rpc with
    | Some c -> Some c.root_id
    | None -> None

let set_context t ~rpc ctx = if t.enabled then Hashtbl.replace t.ctxs rpc ctx

let context_of t ~rpc =
  if t.enabled then Hashtbl.find_opt t.ctxs rpc else None

let detail t ~rpc ~track ~name ~start ~stop =
  if t.enabled then
    match Hashtbl.find_opt t.cursors rpc with
    | None -> ()
    | Some c ->
        ignore
          (emit t ~parent:c.root_id ~trace_id:rpc ~track ~name
             ~kind:Span.Detail ~start ~stop)

let instant t ?(rpc = 0) ~track ~name time =
  if t.enabled then
    let parent =
      match Hashtbl.find_opt t.cursors rpc with
      | Some c -> c.root_id
      | None -> Span.no_parent
    in
    ignore
      (emit t ~parent ~trace_id:rpc ~track ~name ~kind:Span.Instant
         ~start:time ~stop:time)

let rpc_end t ~rpc time =
  if t.enabled then
    match Hashtbl.find_opt t.cursors rpc with
    | None -> ()
    | Some c ->
        t.spans.(c.root_id - 1).Span.end_time <- time;
        Hashtbl.remove t.cursors rpc;
        Hashtbl.remove t.ctxs rpc

let spans t = List.init t.n (fun i -> t.spans.(i))

let roots t =
  List.filter
    (fun s -> s.Span.parent = Span.no_parent && Span.is_closed s
              && s.Span.kind = Span.Interval)
    (spans t)

let stages_of t ~rpc =
  (* Stages of the RPC's most recent completed root. *)
  let root =
    List.fold_left
      (fun acc s ->
        if s.Span.trace_id = rpc && s.Span.parent = Span.no_parent
           && Span.is_closed s
        then Some s.Span.id
        else acc)
      None (spans t)
  in
  match root with
  | None -> []
  | Some root_id ->
      List.filter
        (fun s ->
          s.Span.parent = root_id && s.Span.kind = Span.Interval
          && Span.is_closed s)
        (spans t)

let span_count t = t.n

