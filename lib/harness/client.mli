(** A simulated RPC client.

    Issues requests into a server's ingress and matches response frames
    back to per-call continuations — the client-side realisation of the
    paper's §6 observation that replies need "a dedicated end-point"
    created cheaply per outstanding call: the continuation id is the
    RPC id on the wire, allocated and recycled in O(1) by
    {!Rpc.Continuation}. *)

type t

val create :
  Sim.Engine.t -> send:(Net.Frame.t -> unit) ->
  ?route:(int -> Net.Frame.endpoint option) ->
  ?seed:int -> ?metrics:Obs.Metrics.t -> unit -> t
(** Calls come from {!Traffic.client_endpoint}. [seed] feeds the
    backoff-jitter stream (drawn from only when a call uses
    [jitter > 0]).

    [route] picks the destination of each transmission, the first and
    every retransmit, from the call's wire rpc id, before its frame is
    built: [send] receives the request already addressed to it. [None]
    sends nothing that time (a timed call's timer still runs and tries
    again). A route that returns options built once allocates nothing.
    The default sends everything to {!Traffic.server_address}.

    With [metrics], the client's tallies register as [client_*] derived
    gauges (sent, completed, errors, retransmits, abandoned, rejected,
    duplicates) so experiment reports carry them
    uniformly with the server-side counters. *)

val call :
  ?timeout:Sim.Units.duration -> ?retries:int -> t -> service_id:int ->
  method_id:int -> port:int -> Rpc.Value.t -> (Rpc.Value.t -> unit) -> unit
(** Issue a call; the continuation fires with the decoded result when
    the response arrives. The response body is decoded as a raw blob
    when no schema is registered — register one with {!expect} for
    typed decoding.

    With [timeout] set, the request is retransmitted (same RPC id, so
    at-least-once with server-side idempotence left to the service) up
    to [retries] times (default 3) before the call is abandoned. The
    call's timer stops once the call completes, fails ({!errors}) or
    is abandoned; so once nothing is {!outstanding},
    [completed + errors + abandoned = sent]. Its pending event is
    cancelled then, so a finished call leaves no event on the engine. *)

val call_id :
  ?timeout:Sim.Units.duration -> ?retries:int -> ?backoff:float ->
  ?max_timeout:Sim.Units.duration -> ?jitter:float -> t -> service_id:int ->
  method_id:int -> port:int -> Rpc.Value.t -> (Rpc.Value.t -> unit) -> int64
(** {!call}, returning the wire [rpc_id] as an [int64] (boxed once per
    call), with the full retry policy:
    the [n]th retransmission waits [timeout * backoff^n] (capped at
    [max_timeout]), each wait shrunk by a seeded jitter factor uniform
    in [(1 - jitter, 1]]. Defaults ([backoff = 1], [jitter = 0])
    reproduce {!call}'s fixed-interval behaviour exactly.
    @raise Invalid_argument if [backoff < 1] or [jitter] outside [0,1). *)

val sent : t -> int
(** First transmissions (excludes retransmits). *)

val retransmits : t -> int
val abandoned : t -> int
(** Calls given up after exhausting retries. *)

val rejected : t -> int
(** Explicit transport-level rejects received ({!Rpc.Wire_format}
    [err_shed]/[err_dead] error replies). A rejected call stays armed:
    the running backoff timer retransmits it like a lost packet, so
    rejects convert into retries, not errors — calls issued without a
    [timeout] have no such timer and simply stay outstanding. *)

val duplicates : t -> int
(** Response frames suppressed by rpc-id/epoch matching: duplicates of
    an already-completed call, or late replies to abandoned ids. *)

val expect : t -> service_id:int -> method_id:int -> Rpc.Schema.t -> unit
(** Register the response schema of a method (clients know the IDL).
    @raise Invalid_argument if [method_id] does not fit the wire's u16. *)

val on_reply : t -> Net.Frame.t -> unit
(** Connect to the server's egress: filters and consumes responses
    addressed to this client's ids; ignores other frames. *)

val outstanding : t -> int
val completed : t -> int
val errors : t -> int
(** Responses carrying an application error, or undecodable bodies. *)
