(** Device-homed cache lines with deferred fills — the mechanism behind
    the Lauberhorn receive protocol (paper §5.1, Figure 4).

    The device (NIC) is the home of a set of cache lines. A CPU load
    miss on such a line travels to the device, which may:

    - answer immediately with staged data (a normal fill),
    - park the request and answer later, when a packet arrives — the
      core is stalled, not spinning, and consumes no bus bandwidth
      while waiting, or
    - answer with a TRYAGAIN dummy fill after a timeout, because the
      coherence protocol cannot leave a fill outstanding forever
      without tripping a fatal bus error. The paper uses 15 ms.

    CPU stores to device-homed lines become visible to the device after
    the store-release latency, and the device can pull a line the CPU
    has written with a fetch-exclusive (used to collect RPC responses).

    All latencies come from the {!Interconnect.profile}. Transaction
    counts are exposed for the polling-overhead experiment (E5).

    Each kind of transaction has one latency, so transactions in flight
    land in the order they were issued: they wait in one FIFO per kind,
    and each kind's event closure (and each line's timeout) is built
    once, so a load, fill, store or fetch schedules no fresh closure. *)

type t

type line_id = int

type fill =
  | Data of bytes  (** A real fill carrying line-sized payload. *)
  | Tryagain  (** Timeout dummy; the CPU should retry or yield. *)

val create :
  Sim.Engine.t -> Interconnect.profile ->
  ?stage_delay:(unit -> Sim.Units.duration) ->
  timeout:Sim.Units.duration -> unit -> t
(** [timeout] bounds how long a load may stay parked (15 ms in the
    paper).

    [stage_delay] is a fault-injection hook: sampled once per {!stage},
    a positive result defers the fill's arrival by that long, letting
    the TRYAGAIN timeout race (and beat) real data — the deferred-fill
    misbehaviour the paper's recovery structure exists for. [None]
    (the default) leaves {!stage} synchronous and costs nothing. *)

val engine : t -> Sim.Engine.t

(** {1 Sanitizer hook} *)

type sanitizer_event =
  | Fill of {
      line : line_id;
      gen_at_issue : int;  (** Line generation when the fill left the agent. *)
      gen_now : int;  (** Line generation when it reached the core. *)
      tryagain : bool;
    }
      (** A fill (real or TRYAGAIN) delivered to a waiting core. A
          mismatch between the two generations means the line was
          {!reset_line} while the fill crossed the interconnect. *)
  | Reset of { line : line_id; new_gen : int }
      (** {!reset_line} ran; generations must only ever grow. *)

val set_sanitizer : t -> (sanitizer_event -> unit) option -> unit
(** Install (or clear) the protocol observer. With [None] — the
    default — fills pay one branch and behaviour is unchanged. *)

val alloc_line : t -> line_id
(** Allocate a fresh device-homed line. *)

val set_on_load : t -> line_id -> (served:bool -> unit) -> unit
(** Device-side callback fired whenever a CPU load reaches the home
    agent: [served = true] when staged data satisfied it immediately,
    [false] when the load parked. The home agent sees every fill
    request, which is how the NIC both drives its per-endpoint protocol
    state and infers "a core is polling here" (paper §4). *)

val set_on_store : t -> line_id -> (bytes -> unit) -> unit
(** Device-side callback fired when a CPU store becomes visible. *)

val cpu_load : t -> line_id -> (fill -> unit) -> unit
(** CPU issues a load. The callback fires when the fill returns —
    immediately (one round trip) if data is staged, else when the
    device stages data or the timeout expires.
    @raise Invalid_argument if a load is already parked on this line
    (hardware cannot have two outstanding fills for one line from the
    blocked core). *)

val stage : t -> line_id -> bytes -> unit
(** Device stages fill data: completes a parked load now, or is held
    for the next load. Staged data is consumed by exactly one fill.
    @raise Invalid_argument if data exceeds the line size. *)

val stage_pending : t -> line_id -> bool
(** Whether staged data is waiting for a load. *)

val load_parked : t -> line_id -> bool
(** Whether a CPU load is currently parked on the line. *)

val kick : t -> line_id -> unit
(** Force a parked load to complete with [Tryagain] now (used to
    unblock a core for preemption, §5.1). No-op when nothing is
    parked. *)

val reset_line : t -> line_id -> unit
(** Crash teardown: discard any parked load {e without} answering it
    (its timeout timer is cancelled and its continuation never fires —
    the loading thread is dead), and drop staged data and the CPU's
    uncollected store copy. Load requests still on the interconnect
    when the reset happens die at the directory when they land
    (tallied by {!stale_loads}) instead of re-parking. The line is
    afterwards indistinguishable from a freshly allocated one. *)

val cpu_store : t -> line_id -> bytes -> unit
(** CPU writes the line; the device's [on_store] callback fires after
    the store-release latency. *)

val no_copy : bytes
(** What {!fetch_exclusive} yields when the CPU holds no copy of the
    line. Compare with [==]: no line the CPU stores is physically equal
    to it. *)

val fetch_exclusive : t -> line_id -> (bytes -> unit) -> unit
(** Device pulls the line from the CPU cache; yields the bytes of the
    last [cpu_store], or {!no_copy} if the CPU never wrote it. The
    CPU's copy is invalidated. *)

(** {1 Transaction accounting (bus-traffic experiments)} *)

val loads : t -> int
val fills : t -> int
val tryagains : t -> int

val delayed_stages : t -> int
(** Fills deferred by the [stage_delay] fault hook. *)

val stale_loads : t -> int
(** In-flight load requests that landed after a {!reset_line} of their
    line and were discarded at the directory. *)
