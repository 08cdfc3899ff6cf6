type thread_state = Ready | Running of int | Blocked | Exited

type process = {
  pid : int;
  pname : string;
  mutable thread_count : int;
  mutable alive : bool;
  mutable members : thread list;  (* most-recently-spawned first *)
}

and thread = {
  tid : int;
  tname : string;
  proc : process;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
  mutable affinity : int option;
  mutable last_core : int option;
  mutable kernel_thread : bool;
  mutable quantum_start : Sim.Units.time;
  mutable seg_k : unit -> unit;
  mutable seg_d : Sim.Units.duration;
  mutable seg_kind : Cpu_account.kind;
  mutable seg_core : int;
  mutable seg_end : unit -> unit;
}

let no_segment () = ()

let make_process ~pid ~name =
  { pid; pname = name; thread_count = 0; alive = true; members = [] }

let make_thread ~tid ~name ~proc ?affinity ?(kernel_thread = false) () =
  proc.thread_count <- proc.thread_count + 1;
  let th =
    {
      tid;
      tname = name;
      proc;
      state = Blocked;
      resume = None;
      affinity;
      last_core = None;
      kernel_thread;
      quantum_start = 0;
      seg_k = no_segment;
      seg_d = 0;
      seg_kind = Cpu_account.User;
      seg_core = -1;
      seg_end = no_segment;
    }
  in
  proc.members <- th :: proc.members;
  th

let is_exited t = match t.state with Exited -> true | _ -> false

let state_name = function
  | Ready -> "ready"
  | Running c -> Printf.sprintf "running@%d" c
  | Blocked -> "blocked"
  | Exited -> "exited"

