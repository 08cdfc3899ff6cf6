type t = {
  client : Client.t;
  recorder : Recorder.t;
  forward : Fault.Link.t;
  backward : Fault.Link.t;
  target : (Net.Frame.t -> unit) ref;
      (* where the forward link delivers; set by [connect] *)
  timeout : Sim.Units.duration;
  retries : int;
  backoff : float;
  max_timeout : Sim.Units.duration;
  jitter : float;
  mutable timeline_rev : (Sim.Units.time * int * Sim.Units.duration) list;
}

let create engine ~plan ?(timeout = Sim.Units.us 200) ?(retries = 20)
    ?(backoff = 2.) ?(max_timeout = Sim.Units.ms 2) ?(jitter = 0.25)
    ?metrics () =
  let target = ref (fun (_ : Net.Frame.t) -> ()) in
  let forward =
    Fault.Link.create engine ~plan:plan.Fault.Plan.wire
      ~rng:(Fault.Plan.derived_rng plan ~salt:1)
      ~deliver:(fun f -> !target f)
      ()
  in
  let client =
    Client.create engine
      ~send:(fun f -> Fault.Link.send forward f)
      ~seed:(Fault.Plan.derived_seed plan ~salt:2)
      ?metrics ()
  in
  let backward =
    Fault.Link.create engine ~plan:plan.Fault.Plan.wire
      ~rng:(Fault.Plan.derived_rng plan ~salt:3)
      ~deliver:(fun f -> Client.on_reply client f)
      ()
  in
  let recorder = Recorder.create engine in
  let t =
    {
      client;
      recorder;
      forward;
      backward;
      target;
      timeout;
      retries;
      backoff;
      max_timeout;
      jitter;
      timeline_rev = [];
    }
  in
  Recorder.on_complete recorder (fun ~rpc_id ~latency ->
      t.timeline_rev <-
        (Sim.Engine.now engine, Int64.to_int rpc_id, latency)
        :: t.timeline_rev);
  t

let connect t (driver : Driver.t) = t.target := driver.Driver.ingress
let egress t frame = Fault.Link.send t.backward frame

let call t ~service_id ~method_id ~port args =
  let id_ref = ref 0 in
  let rpc_id =
    Int64.to_int
      (Client.call_id t.client ~timeout:t.timeout ~retries:t.retries
         ~backoff:t.backoff ~max_timeout:t.max_timeout ~jitter:t.jitter
         ~service_id ~method_id ~port args (fun _ ->
           Recorder.complete_by_id t.recorder ~rpc_id:!id_ref))
  in
  id_ref := rpc_id;
  Recorder.stamp t.recorder ~rpc_id

let client t = t.client
let recorder t = t.recorder
let timeline t = List.rev t.timeline_rev

let timeline_digest t =
  List.fold_left
    (fun h (at, id, lat) ->
      let h = ((h * 1_000_003) + at) land max_int in
      let h = ((h * 1_000_003) + id) land max_int in
      ((h * 1_000_003) + lat) land max_int)
    0x1505 (timeline t)

let stats t =
  [
    ("completed", Client.completed t.client);
    ("errors", Client.errors t.client);
    ("retransmits", Client.retransmits t.client);
    ("abandoned", Client.abandoned t.client);
    ("duplicates_suppressed", Client.duplicates t.client);
  ]
  (* Appended only when nonzero, matching the registry convention that
     fault-free reports stay free of fault counters. *)
  @ (match Client.rejected t.client with
    | 0 -> []
    | n -> [ ("rejected", n) ])
  @ Fault.Link.counters t.forward ~prefix:"req_"
  @ Fault.Link.counters t.backward ~prefix:"rep_"
