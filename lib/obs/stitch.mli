(** Cross-fabric span stitching.

    Each shard traces into its own {!Tracer} (hosts into their
    stack's, the switch/uplink/control plane into the master's);
    frames carry a {!Context} so every plane tags its spans with the
    same trace id. [assemble] joins them after the run: for each
    completed RPC on the root plane it collects every closed stage
    span with that trace id across all planes, orders them by time,
    and checks the chain tiles the root exactly — the rack-scale
    generalization of E14's single-host stage-sum invariant.

    The root plane's cursor skips over the interval a host serves
    ({!Tracer.skip_to}); the host's own chain must fill that gap
    precisely or [contiguous] is false. *)

type stage = { plane : string;  (** Label of the tracer that emitted it. *)
               span : Span.t }

type t = {
  trace : int;
  root : Span.t;  (** The origin plane's root: end-to-end latency. *)
  stages : stage list;  (** All planes' stages in time order. *)
  contiguous : bool;
      (** Stages tile [root.start .. root.end] with no gap/overlap. *)
  stage_sum : int;  (** Sum of stage durations. *)
}

val assemble : root:Tracer.t -> parts:(string * Tracer.t) list -> t list
(** One entry per completed RPC on the root plane, sorted by trace id.
    [parts] are the other planes as [(label, tracer)]; the root
    plane's own stages join with label [""]. A trace re-begun on the
    root plane (retransmit) keeps only its most recent root. *)

val exact : t -> bool
(** [contiguous] and the stage durations sum exactly to the root span
    duration (= observed end-to-end latency). *)
