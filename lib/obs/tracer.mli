(** The per-RPC span collector.

    A tracer follows the paper's §6 observation: because the NIC sees
    every RPC's arrival and its response, it can attribute end-system
    latency to pipeline stages with zero application cost. Stacks call
    {!rpc_begin} when a request frame enters the NIC, {!stage} at each
    stage boundary, and {!rpc_end} when the response frame leaves.

    Stage spans form a {e contiguous chain}: each stage runs from the
    previous boundary (tracked per RPC) to the given time, so the
    stage durations of a completed RPC telescope to exactly the
    recorder-measured end-system latency — the invariant experiment
    E14 checks.

    Disabled (the default), every emission is a single load-and-branch,
    cheap enough to leave compiled into every hot path. *)

type t

val create : unit -> t

val enable : t -> unit
val is_enabled : t -> bool

val track : t -> string -> int
(** Intern a track (rendered as a named thread in trace viewers).
    Returns an index for the emission calls; registering the same name
    twice returns the same index. Registration works while disabled. *)

val track_name : t -> int -> string
val tracks : t -> string list
(** In registration order. *)

(** {1 Emission}

    All emission is a no-op (one branch) while the tracer is
    disabled. *)

val rpc_begin : t -> rpc:int -> track:int -> Sim.Units.time -> unit
(** Open the RPC's root span and set its stage cursor. Re-beginning an
    RPC id (a retransmit reaching the server twice) replaces the
    cursor; the superseded root stays open and is skipped by exports. *)

val stage :
  t -> rpc:int -> track:int -> name:string -> Sim.Units.time -> unit
(** Close the stage running since the RPC's cursor: emits the interval
    [cursor, time] as a child of the root span and advances the cursor
    to [time]. No-op for an RPC with no open root (e.g. a nested call
    injected behind the MAC). *)

val stage_until :
  t ->
  rpc:int ->
  track:int ->
  name:string ->
  stop:Sim.Units.time ->
  unit
(** Like {!stage} but closing at an explicit [stop] instead of "now":
    a wire crossing whose completion time the sender already knows
    (transmit time + link latency) can be attributed without an event
    on the receiving side. The cursor advances to [stop]. *)

val skip_to : t -> rpc:int -> Sim.Units.time -> unit
(** Move the RPC's cursor to [time] without emitting a span: the
    elapsed interval belongs to another shard's tracer (e.g. the
    served host's stack), which records it against the same trace id.
    {!Stitch} verifies the remote chain fills the gap exactly. *)

val is_open : t -> rpc:int -> bool
(** The RPC has an open root (and the tracer is enabled). *)

val root_of : t -> rpc:int -> int option
(** The open root span's id — the value carried as [Context.parent]. *)

val set_context : t -> rpc:int -> bytes -> unit
(** Note the RPC's wire trace context (opaque {!Context} bytes) so the
    reply path can echo it. No-op while disabled. *)

val context_of : t -> rpc:int -> bytes option
(** The noted context, if any; always [None] while disabled. Cleared
    by {!rpc_end}. *)

val detail :
  t ->
  rpc:int ->
  track:int ->
  name:string ->
  start:Sim.Units.time ->
  stop:Sim.Units.time ->
  unit
(** A fine-grained sub-interval (e.g. the NIC pipeline's parse/demux/
    deserialize steps inside one stage). Does not move the stage
    cursor and is excluded from the stage-sum invariant; lives on its
    own track. *)

val instant :
  t -> ?rpc:int -> track:int -> name:string -> Sim.Units.time -> unit
(** A point event (drop, retry, fault). *)

val rpc_end : t -> rpc:int -> Sim.Units.time -> unit
(** Close the RPC's root span at [time] and retire its cursor. *)

(** {1 Inspection} *)

val spans : t -> Span.t list
(** Every span, in emission (sequence) order. *)

val roots : t -> Span.t list
(** Closed root spans (one per completed traced RPC), in order. *)

val stages_of : t -> rpc:int -> Span.t list
(** The closed stage chain of one RPC, in order ({!detail} and
    {!instant} spans excluded). *)

val span_count : t -> int
