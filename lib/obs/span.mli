(** One node of a per-RPC causal trace.

    A span is an interval (or instant) on a named track, attributed to
    one RPC ([trace_id]) and causally linked to a parent span. Spans
    carry a globally monotone sequence number so exports stay
    deterministically ordered even among same-timestamp events. *)

type kind =
  | Interval  (** A [start_time, end_time] stage of the RPC's chain. *)
  | Detail
      (** A fine-grained sub-interval inside a stage; not part of the
          contiguous stage chain. *)
  | Instant  (** A point event (drop, retry, fault). *)

type t = {
  id : int;  (** Unique within a tracer, > 0. *)
  parent : int;  (** Parent span id; {!no_parent} for roots. *)
  trace_id : int;  (** The RPC this span belongs to; 0 if none. *)
  track : int;  (** Track index (see {!Tracer.track}). *)
  name : string;
  kind : kind;
  seq : int;  (** Global monotone emission order. *)
  start_time : Sim.Units.time;
  mutable end_time : int;  (** -1 while the interval is still open. *)
}

val no_parent : int
(** The parent id of a root span (0). *)

val is_closed : t -> bool
val duration : t -> Sim.Units.duration
(** 0 for open intervals and instants. *)

