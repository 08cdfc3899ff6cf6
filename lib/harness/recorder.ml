type t = {
  engine : Sim.Engine.t;
  sent_at : (int64, Sim.Units.time) Hashtbl.t;
  hist : Sim.Histogram.t;
  mutable n_sent : int;
  mutable n_completed : int;
  mutable n_unmatched : int;
  mutable observer :
    (rpc_id:int64 -> latency:Sim.Units.duration -> unit) option;
}

let create engine =
  {
    engine;
    sent_at = Hashtbl.create 1024;
    hist = Sim.Histogram.create ();
    n_sent = 0;
    n_completed = 0;
    n_unmatched = 0;
    observer = None;
  }

let note_sent t ~rpc_id =
  Hashtbl.replace t.sent_at rpc_id (Sim.Engine.now t.engine);
  t.n_sent <- t.n_sent + 1

let complete_by_id t ~rpc_id =
  match Hashtbl.find t.sent_at rpc_id with
  | exception Not_found -> t.n_unmatched <- t.n_unmatched + 1
  | t0 ->
      Hashtbl.remove t.sent_at rpc_id;
      let latency = Sim.Engine.now t.engine - t0 in
      Sim.Histogram.record t.hist latency;
      t.n_completed <- t.n_completed + 1;
      (match t.observer with
      | Some f -> f ~rpc_id ~latency
      | None -> ())

(* Only the header is read, in place: the body is never looked at. *)
let egress t frame =
  let payload = frame.Net.Frame.payload in
  match Rpc.Wire_format.check payload with
  | Error _ -> t.n_unmatched <- t.n_unmatched + 1
  | Ok () ->
      if Rpc.Wire_format.is_request payload then
        t.n_unmatched <- t.n_unmatched + 1
      else complete_by_id t ~rpc_id:(Rpc.Wire_format.rpc_id payload)

let latencies t = t.hist
let sent t = t.n_sent
let completed t = t.n_completed
let unmatched t = t.n_unmatched
let outstanding t = Hashtbl.length t.sent_at
let on_complete t f = t.observer <- Some f
