type t = {
  engine : Sim.Engine.t;
  sent_at : Sim.Units.time Sim.Int_table.t;  (* by rpc id *)
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
    (* two arrays of 512 words: the footprint of a 1024-bucket Hashtbl *)
    sent_at = Sim.Int_table.create ~dummy:0 512;
    hist = Sim.Histogram.create ();
    n_sent = 0;
    n_completed = 0;
    n_unmatched = 0;
    observer = None;
  }

let[@hot_path] stamp t ~rpc_id =
  Sim.Int_table.replace t.sent_at rpc_id (Sim.Engine.now t.engine);
  t.n_sent <- t.n_sent + 1

let note_sent t ~rpc_id =
  stamp t ~rpc_id:(Rpc.Wire_format.rpc_id_of_int64 rpc_id)

(* The observer takes the id as an [int64], boxed here: only an
   observer pays for it. *)
let[@hot_path] complete_by_id t ~rpc_id =
  match Sim.Int_table.find t.sent_at rpc_id with
  | exception Not_found -> t.n_unmatched <- t.n_unmatched + 1
  | t0 ->
      Sim.Int_table.remove t.sent_at rpc_id;
      let latency = Sim.Engine.now t.engine - t0 in
      Sim.Histogram.record t.hist latency;
      t.n_completed <- t.n_completed + 1;
      (match t.observer with
      | Some f -> f ~rpc_id:(Int64.of_int rpc_id) ~latency
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
let outstanding t = Sim.Int_table.length t.sent_at
let on_complete t f = t.observer <- Some f
