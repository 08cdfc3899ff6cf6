type t = {
  engine : Sim.Engine.t;
  send : Net.Frame.t -> unit;
  route : int -> Net.Frame.endpoint option;
  endpoint : Net.Frame.endpoint;
  continuations : Rpc.Value.t Rpc.Continuation.t;
  mutable epochs : int array;
      (* continuation id -> the epoch of the call holding it, 0 when
         free: a recycled id must not accept a late response meant for
         its previous owner (ABA) *)
  mutable next_epoch : int;
  mutable issued : Sim.Units.time array;
      (* continuation id -> when its call was first transmitted;
         grown with [epochs] *)
  mutable calls : call option array;
      (* continuation id -> the record of the timed calls on it, built
         when the first such call takes the id; grown with [epochs] *)
  schemas : (int, Rpc.Schema.t) Hashtbl.t;  (* keyed by [schema_key] *)
  rng : Sim.Rng.t;  (* backoff jitter; only drawn when jitter > 0 *)
  latencies : Sim.Histogram.t;  (* issue to completion, per completed call *)
  mutable observer : rpc_id:int -> latency:Sim.Units.duration -> unit;
  mutable sent : int;
  mutable completed : int;
  mutable errors : int;
  mutable retransmits : int;
  mutable abandoned : int;
  mutable duplicates : int;
  mutable rejected : int;
}

(* A call with a timeout: its retry state, its timer closure, built
   once with the record, and the handle of its armed timer. One record
   serves every timed call on its continuation id, one at a time: a
   call's timer is armed while it is live, and the call's end cancels
   it, so a timer that fires always finds the call that armed it. *)
and call = {
  client : t;
  cont : int;
  mutable epoch : int;
  mutable service_id : int;
  mutable method_id : int;
  mutable port : int;
  mutable args : Rpc.Value.t;
  mutable backoff : float;
  mutable max_timeout : Sim.Units.duration;
  mutable jitter : float;
  mutable attempts_left : int;
  mutable base : Sim.Units.duration;
  mutable timer : unit -> unit;
  mutable armed : Sim.Engine.handle;
}

(* rpc_id = epoch << 20 | continuation id. *)
let cont_bits = 20

let rpc_id_of ~epoch ~cont = (epoch lsl cont_bits) lor cont
let cont_of_rpc_id id = id land ((1 lsl cont_bits) - 1)

(* Whether [id] names the call its continuation slot holds now. *)
let current t id =
  let cont = cont_of_rpc_id id in
  cont < Array.length t.epochs
  && Int.equal t.epochs.(cont) (id lsr cont_bits)

(* Free [cont]: its call completed, failed or was abandoned. Stop the
   call's timer and drop its arguments. *)
let[@hot_path] retire t cont =
  t.epochs.(cont) <- 0;
  match t.calls.(cont) with
  | None -> ()
  | Some c ->
      Sim.Engine.cancel t.engine c.armed;
      c.armed <- Sim.Engine.no_handle;
      c.args <- Rpc.Value.Unit

(* The default route: every transmission goes to the one server. *)
let to_server = Some Traffic.server_address
let default_route (_ : int) = to_server
let no_observer ~rpc_id:(_ : int) ~latency:(_ : int) = ()

let create engine ~send ?(route = default_route) ?(seed = 0x7e7) ?metrics ()
    =
  let t =
    {
      engine;
      send;
      route;
      endpoint = Traffic.client_endpoint ();
      continuations = Rpc.Continuation.create ();
      epochs = Array.make 64 0;
      next_epoch = 1;
      issued = Array.make 64 0;
      calls = Array.make 64 None;
      schemas = Hashtbl.create 16;
      rng = Sim.Rng.create ~seed;
      latencies = Sim.Histogram.create ();
      observer = no_observer;
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

(* One int per (service, method): method ids are u16 on the wire, so
   the reply path's lookup allocates no tuple. *)
let schema_key ~service_id ~method_id = (service_id lsl 16) lor method_id

let expect t ~service_id ~method_id schema =
  if method_id < 0 || method_id > 0xffff then
    invalid_arg "Client.expect: method id outside u16";
  Hashtbl.replace t.schemas (schema_key ~service_id ~method_id) schema

(* Exponential growth saturates well below max_int so the float->int
   conversion stays exact-enough and never overflows. *)
let grow base backoff =
  let next = float_of_int base *. backoff in
  if next > 1e15 then 1_000_000_000_000_000 else int_of_float (Float.round next)

(* One transmission, first or retry: the route picks the destination
   before the frame is built, and with no destination nothing is
   sent. *)
let[@hot_path] transmit t ~rpc_id ~service_id ~method_id ~port args =
  match t.route rpc_id with
  | None -> ()
  | Some dst ->
      t.send
        (Traffic.request ~rpc_id ~service_id ~method_id ~port
           ~client:t.endpoint ~dst args)

(* Wait out the current base, shrunk by the jitter draw: [Rng.float]'s
   53 bits, drawn here so no float is boxed. *)
let[@hot_path] arm c =
  let t = c.client in
  let wait =
    if c.jitter > 0. then
      let u = float_of_int (Sim.Rng.bits53 t.rng) *. 0x1.0p-53 in
      Int.max 1
        (int_of_float (float_of_int c.base *. (1. -. (c.jitter *. u))))
    else c.base
  in
  c.armed <- Sim.Engine.schedule_after t.engine ~after:wait c.timer

let[@hot_path] on_timer c () =
  let t = c.client in
  if c.attempts_left > 0 then begin
    t.retransmits <- t.retransmits + 1;
    transmit t
      ~rpc_id:(rpc_id_of ~epoch:c.epoch ~cont:c.cont)
      ~service_id:c.service_id ~method_id:c.method_id ~port:c.port c.args;
    c.attempts_left <- c.attempts_left - 1;
    c.base <- Int.min c.max_timeout (grow c.base c.backoff);
    arm c
  end
  else begin
    t.abandoned <- t.abandoned + 1;
    retire t c.cont;
    ignore (Rpc.Continuation.cancel t.continuations c.cont)
  end

let new_call t cont =
  let c =
    {
      client = t;
      cont;
      epoch = 0;
      service_id = 0;
      method_id = 0;
      port = 0;
      args = Rpc.Value.Unit;
      backoff = 1.;
      max_timeout = 0;
      jitter = 0.;
      attempts_left = 0;
      base = 0;
      timer = ignore;
      armed = Sim.Engine.no_handle;
    }
  in
  c.timer <- on_timer c;
  t.calls.(cont) <- Some c;
  c

let call_id ?timeout ?(retries = 3) ?(backoff = 1.) ?(max_timeout = max_int)
    ?(jitter = 0.) t ~service_id ~method_id ~port args k =
  if backoff < 1. then invalid_arg "Client.call: backoff < 1";
  if jitter < 0. || jitter >= 1. then
    invalid_arg "Client.call: jitter out of [0,1)";
  if max_timeout <= 0 then invalid_arg "Client.call: non-positive max_timeout";
  let cont = Rpc.Continuation.alloc t.continuations k in
  if cont >= 1 lsl cont_bits then
    invalid_arg "Client.call: too many outstanding calls";
  if cont >= Array.length t.epochs then begin
    let n = Array.length t.epochs in
    let size = max (cont + 1) (2 * n) in
    let epochs = Array.make size 0 and issued = Array.make size 0 in
    let calls = Array.make size None in
    Array.blit t.epochs 0 epochs 0 n;
    Array.blit t.issued 0 issued 0 n;
    Array.blit t.calls 0 calls 0 n;
    t.epochs <- epochs;
    t.issued <- issued;
    t.calls <- calls
  end;
  let epoch = t.next_epoch in
  t.next_epoch <- t.next_epoch + 1;
  t.epochs.(cont) <- epoch;
  t.issued.(cont) <- Sim.Engine.now t.engine;
  let rpc_id = rpc_id_of ~epoch ~cont in
  t.sent <- t.sent + 1;
  transmit t ~rpc_id ~service_id ~method_id ~port args;
  (match timeout with
  | None -> ()
  | Some timeout ->
      if timeout <= 0 then invalid_arg "Client.call: non-positive timeout";
      let c =
        match t.calls.(cont) with Some c -> c | None -> new_call t cont
      in
      c.epoch <- epoch;
      c.service_id <- service_id;
      c.method_id <- method_id;
      c.port <- port;
      c.args <- args;
      c.backoff <- backoff;
      c.max_timeout <- max_timeout;
      c.jitter <- jitter;
      c.attempts_left <- retries;
      c.base <- timeout;
      arm c);
  Int64.of_int rpc_id

let call ?timeout ?retries t ~service_id ~method_id ~port args k =
  ignore (call_id ?timeout ?retries t ~service_id ~method_id ~port args k)

(* The call [id] on [cont] ends with its value: retired first, as the
   continuation may issue a call that reuses the slot, and timed from
   its first transmission only if its continuation fires. *)
let[@hot_path] complete t ~id cont v =
  let latency = Sim.Engine.now t.engine - t.issued.(cont) in
  retire t cont;
  if Rpc.Continuation.fire t.continuations cont v then begin
    t.completed <- t.completed + 1;
    Sim.Histogram.record t.latencies latency;
    t.observer ~rpc_id:id ~latency
  end

(* The call on [cont] ends in an error. *)
let[@hot_path] fail t cont =
  t.errors <- t.errors + 1;
  retire t cont;
  ignore (Rpc.Continuation.cancel t.continuations cont)

(* The reply's header is read in place and its body decoded in place,
   from [Wire_format.body_offset] to the end of the payload. *)
let[@hot_path] on_reply t frame =
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
            else fail t cont
      | Rpc.Wire_format.Response -> (
          if not (current t id) then
            (* A duplicate, or a late response to an abandoned (and
               possibly recycled) id: drop it. *)
            t.duplicates <- t.duplicates + 1
          else
            let pos = Rpc.Wire_format.body_offset payload in
            let len = Bytes.length payload - pos in
            let key =
              schema_key
                ~service_id:(Rpc.Wire_format.service_id payload)
                ~method_id:(Rpc.Wire_format.method_id payload)
            in
            match Hashtbl.find t.schemas key with
            | schema -> (
                match Rpc.Codec.decode_sub schema payload ~pos ~len with
                | Ok v -> complete t ~id cont v
                | Error _ -> fail t cont)
            | exception Not_found ->
                complete t ~id cont
                  (Rpc.Value.Blob (Bytes.sub payload pos len)
                  [@alloc_ok "an untyped reply's body is copied out of the \
                              frame"])))

let outstanding t = Rpc.Continuation.live t.continuations
let completed t = t.completed
let latencies t = t.latencies
let on_complete t f = t.observer <- f
let errors t = t.errors

let sent t = t.sent
let retransmits t = t.retransmits
let abandoned t = t.abandoned
let duplicates t = t.duplicates
let rejected t = t.rejected
