(** Steering under scheduler-mirror staleness.

    Composes the steering decision with the dispatch model's
    stale-mirror semantics (see {!Dispatch_model}): the NIC steers by a
    fixed program while the target worker can die, and the death
    notification (a [Sched_mirror] push) is in flight for a window
    during which the NIC still believes the worker is alive.

    The model is parameterized by whether the steering program declares
    a fallback target ([with_fallback]).  With a fallback, every packet
    is eventually handled or NACKed — no silent loss, no strand.
    Without one, a packet arriving after the mirror has converged on
    the death has no valid lane: the program still names the dead
    worker, and the RPC is stranded.  [check ~with_fallback:false ()]
    therefore returns a counterexample trace; the steering verifier
    uses this to reject worker-pinned programs that omit a fallback. *)

type state = {
  to_arrive : int;  (** Packets not yet at the NIC. *)
  q_worker : int;  (** Enqueued on the pinned worker's lane. *)
  q_fallback : int;  (** Enqueued on the fallback lane. *)
  handled : int;
  nacked : int;  (** Rejected with [err_dead] — retried upstream. *)
  stranded : int;  (** Dispatched nowhere: silent loss. *)
  worker_alive : bool;
  mirror_alive : bool;  (** The NIC's (possibly stale) belief. *)
  push_in_flight : bool;  (** Death notification posted, not landed. *)
}

type action =
  | Arrive
  | Worker_dies
  | Push_lands
  | Worker_handles
  | Fallback_handles
  | Sweep  (** Dead-pid sweep NACKs packets queued during staleness. *)
  | Strand  (** No-fallback dispatch against a converged-dead mirror. *)

type step = { action : action option; state : state }

val check :
  ?packets:int -> with_fallback:bool -> unit -> step State_space.verdict
(** Explore all interleavings of [packets] arrivals (default 2) against
    worker death and mirror convergence.  Invariant: packet
    conservation and [stranded = 0]. *)

val pp_trace : Format.formatter -> step list -> unit
