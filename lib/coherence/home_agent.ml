type line_id = int
type fill = Data of bytes | Tryagain

type sanitizer_event =
  | Fill of {
      line : line_id;
      gen_at_issue : int;
      gen_now : int;
      tryagain : bool;
    }
  | Reset of { line : line_id; new_gen : int }

(* The in-flight transactions of each kind wait in a [Sim.Fifo]. Every
   transaction of a kind crosses the interconnect with the agent's
   constant latency for that kind, so they land in issue order, and the
   agent's one event closure per kind pops the oldest. Several can be
   in flight on one line: a load request issued before a [reset_line]
   still travels beside the respawned thread's new one. *)

let no_fill_callback (_ : fill) = ()
let no_fetch_callback (_ : bytes) = ()

(* A fresh block, so no line the CPU stores is physically equal to it. *)
let no_copy = Bytes.create 0
let nop () = ()

type line = {
  id : line_id;
  mutable staged : fill;  (* [Tryagain] when no data is staged *)
  mutable parked : fill -> unit;  (* [no_fill_callback] when none is *)
  mutable timer : Sim.Engine.handle;  (* the parked load's timeout *)
  mutable timeout_fires : unit -> unit;  (* built once, by [alloc_line] *)
  mutable cpu_copy : bytes;
      (* last CPU store, until fetched; [no_copy] when there is none *)
  mutable on_load : (served:bool -> unit) option;
  mutable on_store : (bytes -> unit) option;
  mutable gen : int;
      (* bumped by [reset_line]; loads in flight across a reset are
         discarded when they land *)
}

type t = {
  engine : Sim.Engine.t;
  prof : Interconnect.profile;
  timeout : Sim.Units.duration;
  stage_delay : (unit -> Sim.Units.duration) option;
      (* fault injection: per-stage extra interconnect latency *)
  mutable lines : line array;
  mutable n_lines : int;
  (* In flight, oldest first: load requests (line, loader, line
     generation at issue), fill responses (line, loader, fill,
     generation at issue), store releases (line, image) and
     fetch-exclusives (line, collector). *)
  req_line : int Sim.Fifo.t;
  req_k : (fill -> unit) Sim.Fifo.t;
  req_gen : int Sim.Fifo.t;
  resp_line : int Sim.Fifo.t;
  resp_k : (fill -> unit) Sim.Fifo.t;
  resp_fill : fill Sim.Fifo.t;
  resp_gen : int Sim.Fifo.t;
  store_line : int Sim.Fifo.t;
  store_data : bytes Sim.Fifo.t;
  fetch_line : int Sim.Fifo.t;
  fetch_k : (bytes -> unit) Sim.Fifo.t;
  (* The event closures for each kind, built once by [create]. *)
  mutable request_lands : unit -> unit;
  mutable response_lands : unit -> unit;
  mutable store_lands : unit -> unit;
  mutable fetch_lands : unit -> unit;
  mutable loads : int;
  mutable fills : int;
  mutable tryagains : int;
  mutable delayed_stages : int;
  mutable stale_loads : int;
  mutable sanitizer : (sanitizer_event -> unit) option;
}

let engine t = t.engine
let set_sanitizer t f = t.sanitizer <- f
let is_parked ln = ln.parked != no_fill_callback

(* Send a fill (real or TRYAGAIN) back to the loader [k]. *)
let respond t ln k fill =
  (match fill with
  | Data _ -> t.fills <- t.fills + 1
  | Tryagain -> t.tryagains <- t.tryagains + 1);
  Sim.Fifo.push t.resp_line ln.id;
  Sim.Fifo.push t.resp_k k;
  Sim.Fifo.push t.resp_fill fill;
  Sim.Fifo.push t.resp_gen ln.gen;
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.prof.Interconnect.load_response
       t.response_lands)

let response_lands t () =
  let ln = t.lines.(Sim.Fifo.pop t.resp_line) in
  let k = Sim.Fifo.pop t.resp_k in
  let fill = Sim.Fifo.pop t.resp_fill in
  let gen_at_issue = Sim.Fifo.pop t.resp_gen in
  (match t.sanitizer with
  | None -> ()
  | Some observe ->
      observe
        (Fill
           {
             line = ln.id;
             gen_at_issue;
             gen_now = ln.gen;
             tryagain = (match fill with Tryagain -> true | Data _ -> false);
           }));
  k fill

(* Take the parked load off the line, disarming its timeout. *)
let unpark t ln =
  let k = ln.parked in
  ln.parked <- no_fill_callback;
  Sim.Engine.cancel t.engine ln.timer;
  ln.timer <- Sim.Engine.no_handle;
  k

let complete_parked t ln fill =
  if is_parked ln then respond t ln (unpark t ln) fill

let timeout_fires t ln () =
  if is_parked ln then begin
    let k = ln.parked in
    ln.parked <- no_fill_callback;
    ln.timer <- Sim.Engine.no_handle;
    respond t ln k Tryagain
  end

(* A load miss reaches the home agent. *)
let request_lands t () =
  let ln = t.lines.(Sim.Fifo.pop t.req_line) in
  let k = Sim.Fifo.pop t.req_k in
  let gen = Sim.Fifo.pop t.req_gen in
  if not (Int.equal ln.gen gen) then
    (* The line was reset while this load request was on the
       interconnect: the loader's process is gone, so the request dies
       at the directory instead of parking. *)
    t.stale_loads <- t.stale_loads + 1
  else
    match ln.staged with
    | Data _ as fill ->
        ln.staged <- Tryagain;
        respond t ln k fill;
        (match ln.on_load with Some f -> f ~served:true | None -> ())
    | Tryagain ->
        if is_parked ln then
          invalid_arg
            (Printf.sprintf
               "Home_agent.cpu_load: line %d already has a parked load" ln.id);
        ln.timer <-
          Sim.Engine.schedule_after t.engine ~after:t.timeout ln.timeout_fires;
        ln.parked <- k;
        (match ln.on_load with Some f -> f ~served:false | None -> ())

let store_lands t () =
  let ln = t.lines.(Sim.Fifo.pop t.store_line) in
  let data = Sim.Fifo.pop t.store_data in
  match ln.on_store with Some f -> f data | None -> ()

let fetch_lands t () =
  let ln = t.lines.(Sim.Fifo.pop t.fetch_line) in
  let k = Sim.Fifo.pop t.fetch_k in
  let data = ln.cpu_copy in
  ln.cpu_copy <- no_copy;
  k data

let create engine prof ?stage_delay ~timeout () =
  if timeout <= 0 then invalid_arg "Home_agent.create: non-positive timeout";
  let t =
    {
      engine;
      prof;
      timeout;
      stage_delay;
      lines = [||];
      n_lines = 0;
      req_line = Sim.Fifo.create 0;
      req_k = Sim.Fifo.create no_fill_callback;
      req_gen = Sim.Fifo.create 0;
      resp_line = Sim.Fifo.create 0;
      resp_k = Sim.Fifo.create no_fill_callback;
      resp_fill = Sim.Fifo.create Tryagain;
      resp_gen = Sim.Fifo.create 0;
      store_line = Sim.Fifo.create 0;
      store_data = Sim.Fifo.create Bytes.empty;
      fetch_line = Sim.Fifo.create 0;
      fetch_k = Sim.Fifo.create no_fetch_callback;
      request_lands = nop;
      response_lands = nop;
      store_lands = nop;
      fetch_lands = nop;
      loads = 0;
      fills = 0;
      tryagains = 0;
      delayed_stages = 0;
      stale_loads = 0;
      sanitizer = None;
    }
  in
  t.request_lands <- request_lands t;
  t.response_lands <- response_lands t;
  t.store_lands <- store_lands t;
  t.fetch_lands <- fetch_lands t;
  t

let alloc_line t =
  let id = t.n_lines in
  let ln =
    {
      id;
      staged = Tryagain;
      parked = no_fill_callback;
      timer = Sim.Engine.no_handle;
      timeout_fires = nop;
      cpu_copy = no_copy;
      on_load = None;
      on_store = None;
      gen = 0;
    }
  in
  ln.timeout_fires <- timeout_fires t ln;
  if Int.equal id (Array.length t.lines) then begin
    let bigger = Array.make (max 16 (2 * id)) ln in
    Array.blit t.lines 0 bigger 0 id;
    t.lines <- bigger
  end;
  t.lines.(id) <- ln;
  t.n_lines <- id + 1;
  id

let line t id =
  if id < 0 || id >= t.n_lines then
    invalid_arg (Printf.sprintf "Home_agent: unknown line %d" id);
  t.lines.(id)

let set_on_load t id f = (line t id).on_load <- Some f
let set_on_store t id f = (line t id).on_store <- Some f

let cpu_load t id k =
  let ln = line t id in
  t.loads <- t.loads + 1;
  (* The miss takes load_request to reach the home agent. *)
  Sim.Fifo.push t.req_line ln.id;
  Sim.Fifo.push t.req_k k;
  Sim.Fifo.push t.req_gen ln.gen;
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.prof.Interconnect.load_request
       t.request_lands)

let apply_stage t ln data =
  let fill = Data data in
  if is_parked ln then complete_parked t ln fill else ln.staged <- fill

let stage t id data =
  let ln = line t id in
  if Bytes.length data > t.prof.Interconnect.cache_line_bytes then
    invalid_arg
      (Printf.sprintf "Home_agent.stage: %d bytes exceeds line size %d"
         (Bytes.length data) t.prof.Interconnect.cache_line_bytes);
  match t.stage_delay with
  | None -> apply_stage t ln data
  | Some f ->
      let d = f () in
      if d <= 0 then apply_stage t ln data
      else begin
        (* A delayed interconnect fill: while it is in flight the
           parked load's timeout may win the race and answer Tryagain
           first — exactly the recovery path the paper's §5.1 dummy
           fill exists for. The data still lands when the transfer
           completes (staged, or filling the re-parked load). *)
        t.delayed_stages <- t.delayed_stages + 1;
        ignore
          (Sim.Engine.schedule_after t.engine ~after:d (fun () ->
               apply_stage t ln data))
      end

let stage_pending t id =
  match (line t id).staged with Data _ -> true | Tryagain -> false

let load_parked t id = is_parked (line t id)

let kick t id =
  let ln = line t id in
  complete_parked t ln Tryagain

let reset_line t id =
  let ln = line t id in
  (* Drop any parked load without answering it: the loader is dead and
     its continuation must never fire. *)
  if is_parked ln then ignore (unpark t ln : fill -> unit);
  ln.gen <- ln.gen + 1;
  ln.staged <- Tryagain;
  ln.cpu_copy <- no_copy;
  match t.sanitizer with
  | None -> ()
  | Some observe -> observe (Reset { line = ln.id; new_gen = ln.gen })

let cpu_store t id data =
  let ln = line t id in
  ln.cpu_copy <- data;
  Sim.Fifo.push t.store_line ln.id;
  Sim.Fifo.push t.store_data data;
  ignore
    (Sim.Engine.schedule_after t.engine
       ~after:t.prof.Interconnect.store_release t.store_lands)

let fetch_exclusive t id k =
  let ln = line t id in
  Sim.Fifo.push t.fetch_line ln.id;
  Sim.Fifo.push t.fetch_k k;
  ignore
    (Sim.Engine.schedule_after t.engine
       ~after:t.prof.Interconnect.fetch_exclusive t.fetch_lands)

let loads t = t.loads
let fills t = t.fills
let tryagains t = t.tryagains
let delayed_stages t = t.delayed_stages
let stale_loads t = t.stale_loads
