type t = {
  q : Proc.thread Queue.t;
  present : (int, unit) Hashtbl.t;  (* tids currently in [q] *)
}

let create () = { q = Queue.create (); present = Hashtbl.create 16 }

let enqueue t th =
  if Hashtbl.mem t.present th.Proc.tid then
    invalid_arg
      (Printf.sprintf "Runqueue.enqueue: tid %d already queued" th.Proc.tid);
  Hashtbl.add t.present th.Proc.tid ();
  Queue.add th t.q

let rec pop t =
  match Queue.take_opt t.q with
  | None -> None
  | Some th ->
      Hashtbl.remove t.present th.Proc.tid;
      (match th.Proc.state with
      | Proc.Ready -> Some th
      | Proc.Running _ | Proc.Blocked | Proc.Exited -> pop t)

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q

