(** A lossy-network client harness.

    Wraps a {!Client} (with the full retry policy: exponential backoff,
    seeded jitter, duplicate suppression) behind a pair of
    {!Fault.Link}s — one per direction between the client and the
    server's MAC — and a {!Recorder} measuring retry-inflated latency.

    Everything is derived from the {!Fault.Plan}'s seed, so the same
    plan + workload seeds reproduce the same trace; {!timeline_digest}
    condenses the completion timeline into one int for determinism
    regression checks. *)

type t

val create :
  Sim.Engine.t ->
  plan:Fault.Plan.t ->
  ?timeout:Sim.Units.duration ->
  ?retries:int ->
  ?backoff:float ->
  ?max_timeout:Sim.Units.duration ->
  ?jitter:float ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** Defaults: 200 us initial timeout, 20 retries, backoff 2.0 capped at
    2 ms, jitter 0.25. [metrics] is forwarded to
    {!Client.create} so the client's tallies export as [client_*]
    derived gauges alongside the server's. *)

val connect : t -> Driver.t -> unit
(** Point the forward (request) link at a server's ingress. Frames sent
    before [connect] are dropped silently. *)

val egress : t -> Net.Frame.t -> unit
(** The server stack's egress: response frames enter the backward
    (reply) link here. Usable at stack-construction time, before
    {!connect}. *)

val call :
  t -> service_id:int -> method_id:int -> port:int -> Rpc.Value.t -> unit
(** Issue one echo-style call through the faulty links with the
    configured retry policy, recording send and completion times. *)

val client : t -> Client.t
val recorder : t -> Recorder.t

val timeline : t -> (Sim.Units.time * int * Sim.Units.duration) list
(** Completions in order: (completion time, rpc_id, latency). *)

val timeline_digest : t -> int
(** Order-sensitive hash of {!timeline}; equal digests for equal
    timelines — the determinism regression signal. *)

val stats : t -> (string * int) list
(** Client retry/suppression counters plus both links' fault counters
    (prefixed [req_] and [rep_]). A [rejected] entry (explicit
    shed/dead NACKs converted into retries) appears only when
    nonzero. *)
