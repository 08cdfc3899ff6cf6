(** A Lauberhorn communication end-point: two CONTROL cache lines homed
    on the NIC plus auxiliary lines (paper §5.1, Figure 4), with the
    NIC-side protocol state machine.

    Double buffering: requests are staged alternately into the two
    CONTROL lines. When the CPU — having written its response into the
    line that carried request [n] — loads the other line for request
    [n+1], the home agent sees that load; the endpoint then pulls the
    response line back with a fetch-exclusive and hands it to the
    stack for transmission. At most two requests are in flight per
    endpoint; beyond that, requests wait in a bounded NIC SRAM queue.

    CONTROL lines carry real encoded {!Message} images through the
    {!Coherence.Home_agent}, written in place into one request and one
    response image per line; auxiliary-line traffic is priced on the
    interconnect profile without materialising each line. *)

type t

val create :
  Coherence.Home_agent.t -> Config.t -> id:int ->
  on_response:(bytes -> unit) -> unit -> t
(** [on_response] fires when a response line (plus any aux/DMA payload
    time) has been collected from the CPU cache. It gets the line image,
    which {!Message.response_ok} accepts, to read in place with the
    [Message.response_*] readers. *)

val ctrl_line : t -> int -> Coherence.Home_agent.line_id
(** The two CONTROL lines, index 0 and 1 (CPU side loads these). *)

val response_image : t -> int -> bytes
(** The buffer the CPU writes its response for CONTROL line 0 or 1
    into (with {!Message.write_response_into}) before storing it to
    that line. The NIC writes each request the same way, into a
    request image of its own per line. {!reset} replaces all four
    images, so bytes still in flight across a crash are never
    overwritten. *)

val deliver : ?kernel_dispatch:bool -> t -> Message.request -> bool
(** NIC delivers a request: stages it into the current CONTROL line if
    a credit is free, else queues it in NIC SRAM. Returns [false] when
    the SRAM queue is also full (drop — counted). Aux-line and
    DMA-fallback transfer time for oversized arguments is charged
    before the line becomes visible. [kernel_dispatch] wraps the line
    as a KERNEL_DISPATCH envelope for dispatcher endpoints (default
    plain REQUEST). *)

val deliver_request :
  t -> rpc_id:int -> service_id:int -> method_id:int -> code_ptr:int64 ->
  data_ptr:int64 -> total_args:int -> aux_count:int -> via_dma:bool ->
  bytes -> off:int -> len:int -> bool
(** [deliver] of the plain REQUEST with those fields, whose inline
    arguments are [len] bytes of the buffer from [off]. A request staged
    at once is written straight into its line image
    ({!Message.write_request_into}), with no request record; one that
    must wait in NIC SRAM is queued as a record, with its inline
    arguments a view of the buffer. *)

val set_on_parked : t -> (unit -> unit) -> unit
(** Fires whenever a CPU load parks on the current CONTROL line with
    nothing to deliver — the "a core is polling here" signal consumed
    by the scheduling logic. *)

val parked : t -> bool
(** A load is parked on the line the next request would go to. *)

val kick : t -> unit
(** Answer a parked load with TRYAGAIN immediately (preemption path). *)

val retire : t -> bool
(** Answer a parked load with a RETIRE line (paper §5.2: reallocating a
    non-preemptible kernel thread waiting on Lauberhorn). Returns
    [false] when no load is parked — retirement needs the thread at its
    synchronization point. Does not consume a delivery credit. *)

val reset : t -> (Message.request * bool) list
(** Crash teardown: tear down both CONTROL lines (parked loads are
    discarded without answering — the loaders are dead — and staged or
    CPU-written data dropped), zero the credit state, and return the
    NIC-SRAM queue contents in arrival order (with their
    [kernel_dispatch] flags). The SRAM queue lives on the NIC, not in
    the crashed process, so those requests survive for requeueing; the
    ≤2 staged requests do not — the caller must NACK them from its
    in-flight table. *)

val queue_depth : t -> int
(** Requests waiting in NIC SRAM (excludes the ≤2 staged in lines). *)

val in_flight : t -> int
(** Requests staged/being-handled whose responses are not collected. *)

val stats_delivered : t -> int
val stats_responses : t -> int
val stats_dropped : t -> int
