type t = {
  engine : Sim.Engine.t;
  send : Net.Frame.t -> unit;
  endpoint : Net.Frame.endpoint;
  continuations : Rpc.Value.t Rpc.Continuation.t;
  epochs : (int, int) Hashtbl.t;
      (* continuation id -> epoch: a recycled id must not accept a late
         response meant for its previous owner (ABA) *)
  mutable next_epoch : int;
  schemas : (int * int, Rpc.Schema.t) Hashtbl.t;
  rng : Sim.Rng.t;  (* backoff jitter; only drawn when jitter > 0 *)
  mutable sent : int;
  mutable completed : int;
  mutable errors : int;
  mutable retransmits : int;
  mutable abandoned : int;
  mutable duplicates : int;
  mutable rejected : int;
}

(* rpc_id = epoch << 20 | continuation id. *)
let cont_bits = 20

let rpc_id_of ~epoch ~cont =
  Int64.logor
    (Int64.shift_left (Int64.of_int epoch) cont_bits)
    (Int64.of_int cont)

let cont_of_rpc_id id =
  Int64.to_int (Int64.logand id (Int64.of_int ((1 lsl cont_bits) - 1)))

(* Whether [id] names the call its continuation slot holds now. *)
let current t id =
  match Hashtbl.find t.epochs (cont_of_rpc_id id) with
  | epoch ->
      Int.equal epoch (Int64.to_int (Int64.shift_right_logical id cont_bits))
  | exception Not_found -> false

let create engine ~send ?endpoint ?(seed = 0x7e7) ?metrics () =
  let endpoint =
    match endpoint with Some e -> e | None -> Traffic.client_endpoint ()
  in
  let t =
    {
      engine;
      send;
      endpoint;
      continuations = Rpc.Continuation.create ();
      epochs = Hashtbl.create 64;
      next_epoch = 1;
      schemas = Hashtbl.create 16;
      rng = Sim.Rng.create ~seed;
      sent = 0;
      completed = 0;
      errors = 0;
      retransmits = 0;
      abandoned = 0;
      duplicates = 0;
      rejected = 0;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.derive m "client_sent" (fun () -> t.sent);
      Obs.Metrics.derive m "client_completed" (fun () -> t.completed);
      Obs.Metrics.derive m "client_errors" (fun () -> t.errors);
      Obs.Metrics.derive m "client_retransmits" (fun () -> t.retransmits);
      Obs.Metrics.derive m "client_abandoned" (fun () -> t.abandoned);
      Obs.Metrics.derive m "client_rejected" (fun () -> t.rejected);
      Obs.Metrics.derive m "client_duplicates" (fun () -> t.duplicates));
  t

let expect t ~service_id ~method_id schema =
  Hashtbl.replace t.schemas (service_id, method_id) schema

(* Exponential growth saturates well below max_int so the float->int
   conversion stays exact-enough and never overflows. *)
let grow base backoff =
  let next = float_of_int base *. backoff in
  if next > 1e15 then 1_000_000_000_000_000 else int_of_float (Float.round next)

let call_id ?timeout ?(retries = 3) ?(backoff = 1.) ?(max_timeout = max_int)
    ?(jitter = 0.) t ~service_id ~method_id ~port args k =
  if backoff < 1. then invalid_arg "Client.call: backoff < 1";
  if jitter < 0. || jitter >= 1. then
    invalid_arg "Client.call: jitter out of [0,1)";
  if max_timeout <= 0 then invalid_arg "Client.call: non-positive max_timeout";
  let done_flag = ref false in
  let cont_ref = ref (-1) in
  let cont =
    Rpc.Continuation.alloc t.continuations (fun v ->
        done_flag := true;
        Hashtbl.remove t.epochs !cont_ref;
        k v)
  in
  cont_ref := cont;
  if cont >= 1 lsl cont_bits then
    invalid_arg "Client.call: too many outstanding calls";
  let epoch = t.next_epoch in
  t.next_epoch <- t.next_epoch + 1;
  Hashtbl.replace t.epochs cont epoch;
  let frame () =
    Traffic.request_frame
      ~rpc_id:(rpc_id_of ~epoch ~cont)
      ~service_id ~method_id ~port ~client:t.endpoint args
  in
  t.sent <- t.sent + 1;
  t.send (frame ());
  (match timeout with
  | None -> ()
  | Some timeout ->
      if timeout <= 0 then invalid_arg "Client.call: non-positive timeout";
      let rec arm attempts_left base =
        let wait =
          if jitter > 0. then
            max 1
              (int_of_float
                 (float_of_int base *. (1. -. (jitter *. Sim.Rng.float t.rng))))
          else base
        in
        ignore
          (Sim.Engine.schedule_after t.engine ~after:wait (fun () ->
               if not !done_flag then
                 if attempts_left > 0 then begin
                   t.retransmits <- t.retransmits + 1;
                   t.send (frame ());
                   arm (attempts_left - 1) (min max_timeout (grow base backoff))
                 end
                 else begin
                   t.abandoned <- t.abandoned + 1;
                   Hashtbl.remove t.epochs cont;
                   ignore (Rpc.Continuation.cancel t.continuations cont)
                 end))
      in
      arm retries timeout);
  rpc_id_of ~epoch ~cont

let call ?timeout ?retries t ~service_id ~method_id ~port args k =
  ignore (call_id ?timeout ?retries t ~service_id ~method_id ~port args k)

(* The reply's header is read in place and its body decoded in place,
   from [Wire_format.body_offset] to the end of the payload. *)
let on_reply t frame =
  let payload = frame.Net.Frame.payload in
  match Rpc.Wire_format.check payload with
  | Error _ -> ()
  | Ok () -> (
      let id = Rpc.Wire_format.rpc_id payload in
      let cont = cont_of_rpc_id id in
      match Rpc.Wire_format.kind payload with
      | Rpc.Wire_format.Request -> ()
      | Rpc.Wire_format.Error_reply code ->
          if current t id then
            if Rpc.Wire_format.retriable_error code then
              (* An explicit transport-level reject (shed under
                 overload, dead service): keep the call armed — the
                 backoff timer already running for it will retransmit,
                 exactly as if the request had been lost, except the
                 client learns immediately instead of burning a
                 timeout. *)
              t.rejected <- t.rejected + 1
            else begin
              t.errors <- t.errors + 1;
              Hashtbl.remove t.epochs cont;
              ignore (Rpc.Continuation.cancel t.continuations cont)
            end
      | Rpc.Wire_format.Response -> (
          if not (current t id) then
            (* A duplicate, or a late response to an abandoned (and
               possibly recycled) id: drop it. *)
            t.duplicates <- t.duplicates + 1
          else
            let pos = Rpc.Wire_format.body_offset payload in
            let len = Bytes.length payload - pos in
            let key =
              ( Rpc.Wire_format.service_id payload,
                Rpc.Wire_format.method_id payload )
            in
            let value =
              match Hashtbl.find t.schemas key with
              | schema -> Rpc.Codec.decode_sub schema payload ~pos ~len
              | exception Not_found ->
                  Ok (Rpc.Value.Blob (Bytes.sub payload pos len))
            in
            match value with
            | Ok v ->
                if Rpc.Continuation.fire t.continuations cont v then
                  t.completed <- t.completed + 1
            | Error _ ->
                t.errors <- t.errors + 1;
                Hashtbl.remove t.epochs cont;
                ignore (Rpc.Continuation.cancel t.continuations cont)))

let outstanding t = Rpc.Continuation.live t.continuations
let completed t = t.completed
let errors t = t.errors

let sent t = t.sent
let retransmits t = t.retransmits
let abandoned t = t.abandoned
let duplicates t = t.duplicates
let rejected t = t.rejected
