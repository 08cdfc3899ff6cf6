type t = {
  engine : Sim.Engine.t;
  spec : Plan.server_fault;
  crash : unit -> unit;
  restart : unit -> unit;
  mutable handled : int;
  mutable fired : bool;
  mutable crashes : int;
  mutable restarts : int;
}

let fire t =
  if not t.fired then begin
    t.fired <- true;
    t.crashes <- t.crashes + 1;
    t.crash ();
    if t.spec.Plan.restart then
      ignore
        (Sim.Engine.schedule_after t.engine ~after:t.spec.Plan.downtime
           (fun () ->
             t.restarts <- t.restarts + 1;
             t.restart ()))
  end

let install engine ~plan ~crash ~restart =
  let spec = plan.Plan.server in
  let t =
    { engine; spec; crash; restart; handled = 0; fired = false;
      crashes = 0; restarts = 0 }
  in
  (match spec.Plan.crash_at with
  | None -> ()
  | Some at ->
      ignore (Sim.Engine.schedule_at engine ~at (fun () -> fire t)));
  t

let on_handled t () =
  if not t.fired then begin
    t.handled <- t.handled + 1;
    match t.spec.Plan.crash_after_rpcs with
    | Some n when t.handled >= n ->
        (* The hook runs inside the serving thread's own instruction
           stream; killing that thread out from under itself would
           leave the stack mid-step. Crash on the next event instead —
           same simulated instant, deterministic order. *)
        ignore (Sim.Engine.schedule_after t.engine ~after:0 (fun () -> fire t))
    | Some _ | None -> ()
  end

let crashes t = t.crashes
let restarts t = t.restarts
