type t = {
  ha : Coherence.Home_agent.t;
  line_bytes : int;
  lines : Coherence.Home_agent.line_id array;
  on_line : bytes -> unit;
  mutable cur : int;
  mutable inflight : int;
  waiting : (bytes * (unit -> unit)) Queue.t;
  mutable n_stalls : int;
}

let store_now t image accepted =
  let line = t.lines.(t.cur) in
  t.cur <- 1 - t.cur;
  t.inflight <- t.inflight + 1;
  Coherence.Home_agent.cpu_store t.ha line image;
  accepted ()

let on_store t (_ : bytes) =
  (* The NIC consumed one line: a credit frees; admit a waiter. *)
  t.inflight <- t.inflight - 1;
  match Queue.take_opt t.waiting with
  | Some (image, accepted) -> store_now t image accepted
  | None -> ()

let create ha cfg ~on_line () =
  let t =
    {
      ha;
      line_bytes =
        cfg.Config.profile.Coherence.Interconnect.cache_line_bytes;
      lines =
        [| Coherence.Home_agent.alloc_line ha;
           Coherence.Home_agent.alloc_line ha |];
      on_line;
      cur = 0;
      inflight = 0;
      waiting = Queue.create ();
      n_stalls = 0;
    }
  in
  Array.iter
    (fun line ->
      Coherence.Home_agent.set_on_store ha line (fun image ->
          t.on_line image;
          on_store t image))
    t.lines;
  t

let cpu_send t image ~accepted =
  if Bytes.length image > t.line_bytes then
    invalid_arg
      (Printf.sprintf "Tx_endpoint.cpu_send: %d bytes exceeds line size %d"
         (Bytes.length image) t.line_bytes);
  if t.inflight < 2 then store_now t image accepted
  else begin
    t.n_stalls <- t.n_stalls + 1;
    Queue.add (image, accepted) t.waiting
  end

let in_flight t = t.inflight
let backpressure_stalls t = t.n_stalls
