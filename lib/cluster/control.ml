(* Master-side lifecycle bookkeeping: array-indexed state, a periodic
   probe loop, and a round-robin balancer. Everything is driven by the
   master's engine, so state transitions are deterministic functions of
   the simulation. *)

type state = Unregistered | Alive | Dead

(* Lease epochs: (master generation) lsl 20 lor (per-host registration
   ordinal). A registration mints a fresh epoch; a master restart bumps
   the generation, so every pre-restart epoch becomes stale at once —
   acks echoing one are rejected, never mistaken for current health. *)
let generation_shift = 20
let ordinal_mask = (1 lsl generation_shift) - 1

type t = {
  engine : Sim.Engine.t;
  probe_period : Sim.Units.duration;
  probe : host:int -> unit;
  on_dead : host:int -> unit;
  on_alive : host:int -> unit;
  states : state array;
  awaiting_ack : bool array;
  sheddings : bool array;
  n_steered : int array;
  epochs : int array;
  reg_ordinals : int array;
  mutable cursor : int;
  mutable started : bool;
  (* master process liveness: a crashed master ignores registers and
     acks, stops probing and steering; a restart loses all soft state
     (every host back to Unregistered) under a new generation *)
  mutable up : bool;
  mutable gen : int;
  (* lifecycle counters live on the Obs.Metrics registry; the named
     accessors below are views over the same cells *)
  metrics : Obs.Metrics.t;
  c_deaths : Obs.Metrics.counter;
  c_registrations : Obs.Metrics.counter;
  c_probes_sent : Obs.Metrics.counter;
  c_acks_received : Obs.Metrics.counter;
  (* fault-class counters, registered lazily (at the first crash /
     first stale ack) so a fault-free run's metrics snapshot is
     byte-identical to the pre-fault-domain control plane *)
  mutable c_master_restarts : Obs.Metrics.counter option;
  mutable c_epoch_rejections : Obs.Metrics.counter option;
}

let nop ~host:_ = ()

let create engine ~hosts ~probe_period ~probe ?(on_dead = nop)
    ?(on_alive = nop) ?metrics () =
  if hosts <= 0 then invalid_arg "Control.create: hosts must be positive";
  if probe_period <= 0 then
    invalid_arg "Control.create: probe_period must be positive";
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let n_steered = Array.make hosts 0 in
  Obs.Metrics.derive metrics "ctl_steered_total" (fun () ->
      Array.fold_left ( + ) 0 n_steered);
  {
    engine;
    probe_period;
    probe;
    on_dead;
    on_alive;
    states = Array.make hosts Unregistered;
    awaiting_ack = Array.make hosts false;
    sheddings = Array.make hosts false;
    n_steered;
    epochs = Array.make hosts 0;
    reg_ordinals = Array.make hosts 0;
    cursor = 0;
    started = false;
    up = true;
    gen = 1;
    metrics;
    c_deaths = Obs.Metrics.counter metrics "ctl_deaths";
    c_registrations = Obs.Metrics.counter metrics "ctl_registrations";
    c_probes_sent = Obs.Metrics.counter metrics "ctl_probes_sent";
    c_acks_received = Obs.Metrics.counter metrics "ctl_acks_received";
    c_master_restarts = None;
    c_epoch_rejections = None;
  }

let check_host t host =
  if host < 0 || host >= Array.length t.states then
    invalid_arg "Control: bad host index"

let is_alive = function Alive -> true | Unregistered | Dead -> false

(* One probe round: reap, then probe. Reaping first means a host whose
   probe went unanswered is declared dead exactly one period after the
   probe was sent — "within one probe period" of the crash that ate
   the ack. A crashed master's pending round fires into nothing: the
   loop parks itself (started <- false) and [restart] re-arms it. *)
let rec tick t () =
  if not t.up then t.started <- false
  else begin
    Array.iteri
      (fun h st ->
        if is_alive st && t.awaiting_ack.(h) then begin
          t.states.(h) <- Dead;
          t.awaiting_ack.(h) <- false;
          Obs.Metrics.incr t.c_deaths;
          t.on_dead ~host:h
        end)
      t.states;
    Array.iteri
      (fun h st ->
        if is_alive st then begin
          t.awaiting_ack.(h) <- true;
          Obs.Metrics.incr t.c_probes_sent;
          t.probe ~host:h
        end)
      t.states;
    ignore (Sim.Engine.schedule_after t.engine ~after:t.probe_period (tick t))
  end

let start t =
  if not t.started then begin
    t.started <- true;
    ignore (Sim.Engine.schedule_after t.engine ~after:t.probe_period (tick t))
  end

(* A register mints the host's lease epoch even when the host is
   already Alive (a lease-driven defensive re-register): stale acks
   from its previous incarnation stop forgiving probes. *)
let register t ~host =
  check_host t host;
  if t.up then begin
    Obs.Metrics.incr t.c_registrations;
    t.awaiting_ack.(host) <- false;
    t.reg_ordinals.(host) <- (t.reg_ordinals.(host) + 1) land ordinal_mask;
    t.epochs.(host) <- (t.gen lsl generation_shift) lor t.reg_ordinals.(host);
    if not (is_alive t.states.(host)) then begin
      t.states.(host) <- Alive;
      t.on_alive ~host
    end
  end

let epoch t ~host =
  check_host t host;
  t.epochs.(host)

let reject_stale_ack t =
  let c =
    match t.c_epoch_rejections with
    | Some c -> c
    | None ->
        let c = Obs.Metrics.counter t.metrics "ctl_epoch_rejections" in
        t.c_epoch_rejections <- Some c;
        c
  in
  Obs.Metrics.incr c

let ack ?epoch t ~host =
  check_host t host;
  if t.up && is_alive t.states.(host) then
    match epoch with
    | Some e when e <> t.epochs.(host) -> reject_stale_ack t
    | Some _ | None ->
        Obs.Metrics.incr t.c_acks_received;
        t.awaiting_ack.(host) <- false

(* Master crash: the process is gone — probing stops, registers and
   acks fall on the floor, the balancer answers nothing. Soft state
   (who is alive, who is shedding, the round-robin cursor) dies with
   it; only the generation counter survives, because it is what makes
   pre-crash epochs detectably stale after the restart. *)
let crash t =
  if t.up then t.up <- false
[@@fault_seam]

let restart t =
  if not t.up then begin
    t.up <- true;
    t.gen <- t.gen + 1;
    Array.fill t.states 0 (Array.length t.states) Unregistered;
    Array.fill t.awaiting_ack 0 (Array.length t.awaiting_ack) false;
    Array.fill t.sheddings 0 (Array.length t.sheddings) false;
    t.cursor <- 0;
    let c =
      match t.c_master_restarts with
      | Some c -> c
      | None ->
          let c = Obs.Metrics.counter t.metrics "ctl_master_restarts" in
          t.c_master_restarts <- Some c;
          c
    in
    Obs.Metrics.incr c;
    (* the probe loop re-arms whether or not the crash-era round has
       already parked it *)
    start t
  end
[@@fault_seam]

let up t = t.up
let master_generation t = t.gen

let master_restarts t =
  match t.c_master_restarts with Some c -> Obs.Metrics.value c | None -> 0

let epoch_rejections t =
  match t.c_epoch_rejections with Some c -> Obs.Metrics.value c | None -> 0

let set_shedding t ~host v =
  check_host t host;
  t.sheddings.(host) <- v

let state t ~host =
  check_host t host;
  t.states.(host)

let alive t ~host = is_alive (state t ~host)

let shedding t ~host =
  check_host t host;
  t.sheddings.(host)

let steerable t ~host = alive t ~host && not (shedding t ~host)

(* A loop, not a local recursive function: picking allocates nothing. *)
let pick t =
  let n = Array.length t.states in
  let picked = ref (-1) and tried = ref 0 in
  if t.up then
    while !picked < 0 && !tried < n do
      let h = (t.cursor + !tried) mod n in
      if steerable t ~host:h then begin
        t.cursor <- (h + 1) mod n;
        t.n_steered.(h) <- t.n_steered.(h) + 1;
        picked := h
      end
      else incr tried
    done;
  !picked

let steered t = Array.copy t.n_steered
let deaths t = Obs.Metrics.value t.c_deaths
let registrations t = Obs.Metrics.value t.c_registrations
let probes_sent t = Obs.Metrics.value t.c_probes_sent
let acks_received t = Obs.Metrics.value t.c_acks_received
let metrics t = t.metrics

(* Worker-side lease: runs on the *host's* engine, so it survives the
   master by construction. Each observed probe renews the lease; a
   periodic check that finds the lease expired fires [re_register]
   (a register posted back across the wire), which is what brings a
   worker back under a restarted master's fresh generation. *)
module Worker_lease = struct
  type nonrec t = {
    engine : Sim.Engine.t;
    timeout : Sim.Units.duration;
    re_register : unit -> unit;
    mutable last_probe : Sim.Units.time;
    mutable running : bool;
    mutable re_registrations : int;
  }

  let create engine ~timeout ~re_register =
    if timeout <= 0 then
      invalid_arg "Worker_lease.create: timeout must be positive";
    {
      engine;
      timeout;
      re_register;
      last_probe = 0;
      running = false;
      re_registrations = 0;
    }

  let rec check l () =
    if l.running then begin
      let now = Sim.Engine.now l.engine in
      if now - l.last_probe >= l.timeout then begin
        l.re_registrations <- l.re_registrations + 1;
        l.re_register ()
      end;
      ignore (Sim.Engine.schedule_after l.engine ~after:l.timeout (check l))
    end

  let start l =
    if not l.running then begin
      l.running <- true;
      l.last_probe <- Sim.Engine.now l.engine;
      ignore (Sim.Engine.schedule_after l.engine ~after:l.timeout (check l))
    end

  let stop l = l.running <- false
  let saw_probe l = l.last_probe <- Sim.Engine.now l.engine
  let re_registrations l = l.re_registrations
end
