type mode = Push | Query

type t = {
  mmode : mode;
  prof : Coherence.Interconnect.profile;
  kernel : Osmodel.Kernel.t;
  view : (int * int) option array;  (* core -> (pid, tid) *)
  dead : (int, unit) Hashtbl.t;  (* pids the NIC believes are dead *)
  mutable on_pid_dead : (int -> unit) list;
  mutable on_pid_respawn : (int -> unit) list;
  mutable pushes : int;
  mutable pending : int;  (* pushes scheduled but not yet landed *)
}

let create ~mode prof kernel =
  let t =
    {
      mmode = mode;
      prof;
      kernel;
      view = Array.make (Osmodel.Kernel.ncores kernel) None;
      dead = Hashtbl.create 8;
      on_pid_dead = [];
      on_pid_respawn = [];
      pushes = 0;
      pending = 0;
    }
  in
  (match mode with
  | Push ->
      Osmodel.Kernel.on_context_switch kernel (fun ~core ~prev:_ ~next ->
          let entry =
            Option.map
              (fun (th : Osmodel.Proc.thread) ->
                (th.Osmodel.Proc.proc.Osmodel.Proc.pid, th.Osmodel.Proc.tid))
              next
          in
          (* The push crosses the interconnect before the NIC sees it. *)
          t.pending <- t.pending + 1;
          ignore
            (Sim.Engine.schedule_after
               (Osmodel.Kernel.engine kernel)
               ~after:prof.Coherence.Interconnect.store_release
               (fun () ->
                 t.pending <- t.pending - 1;
                 t.pushes <- t.pushes + 1;
                 t.view.(core) <- entry)))
  | Query -> ());
  (* Process death travels the same path as occupancy updates: in Push
     mode the NIC learns after one store-release — the stale window the
     dispatch path must survive — and the subscribed callbacks run at
     that (lagged) instant. In Query mode the kernel is consulted live,
     so callbacks fire immediately. *)
  Osmodel.Kernel.on_process_exit kernel (fun proc ->
      let pid = proc.Osmodel.Proc.pid in
      let land_death () =
        t.pushes <- t.pushes + 1;
        Hashtbl.replace t.dead pid ();
        List.iter (fun f -> f pid) (List.rev t.on_pid_dead)
      in
      match mode with
      | Query -> land_death ()
      | Push ->
          t.pending <- t.pending + 1;
          ignore
            (Sim.Engine.schedule_after
               (Osmodel.Kernel.engine kernel)
               ~after:prof.Coherence.Interconnect.store_release
               (fun () ->
                 t.pending <- t.pending - 1;
                 land_death ())));
  Osmodel.Kernel.on_process_respawn kernel (fun proc ->
      let pid = proc.Osmodel.Proc.pid in
      let land_respawn () =
        t.pushes <- t.pushes + 1;
        Hashtbl.remove t.dead pid;
        List.iter (fun f -> f pid) (List.rev t.on_pid_respawn)
      in
      match mode with
      | Query -> land_respawn ()
      | Push ->
          t.pending <- t.pending + 1;
          ignore
            (Sim.Engine.schedule_after
               (Osmodel.Kernel.engine kernel)
               ~after:prof.Coherence.Interconnect.store_release
               (fun () ->
                 t.pending <- t.pending - 1;
                 land_respawn ())));
  t

let lookup_cost t =
  match t.mmode with
  | Push -> 0
  | Query -> t.prof.Coherence.Interconnect.mmio_read

let truth t core =
  Option.map
    (fun (th : Osmodel.Proc.thread) ->
      (th.Osmodel.Proc.proc.Osmodel.Proc.pid, th.Osmodel.Proc.tid))
    (Osmodel.Kernel.current t.kernel ~core)

let kernel_truth t ~core = truth t core

let core_occupant t ~core =
  match t.mmode with Push -> t.view.(core) | Query -> truth t core

let cores_running t ~pid =
  let n = Osmodel.Kernel.ncores t.kernel in
  let rec go core acc =
    if core >= n then List.rev acc
    else
      match core_occupant t ~core with
      | Some (p, _) when Int.equal p pid -> go (core + 1) (core :: acc)
      | Some _ | None -> go (core + 1) acc
  in
  go 0 []

let is_running t ~pid = not (List.is_empty (cores_running t ~pid))

let pid_alive t ~pid = not (Hashtbl.mem t.dead pid)
let in_flight_pushes t = t.pending
let on_pid_dead t f = t.on_pid_dead <- f :: t.on_pid_dead
let on_pid_respawn t f = t.on_pid_respawn <- f :: t.on_pid_respawn
let pushes t = t.pushes
