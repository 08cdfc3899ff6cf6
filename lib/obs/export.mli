(** Chrome trace-event / Perfetto JSON export.

    Renders {!Tracer} spans as a trace-event JSON object loadable by
    [ui.perfetto.dev] or [chrome://tracing]. Timestamps are emitted in
    microseconds with nanosecond precision (three decimals); events
    appear in global sequence order, so a fixed-seed run exports
    byte-identical JSON. *)

val multi_trace_events : (string * Tracer.t) list -> Json.t
(** The full document: process/thread-name metadata, one ["X"]
    (complete) event per closed interval/detail span, one ["i"]
    (instant) event per instant span. Open spans (RPCs still in
    flight, superseded retransmit roots) are skipped.

    Each [(label, tracer)] plane renders as its own process (pid =
    list position + 1, process name = label) with the tracer's tracks
    as threads — for a stitched rack trace, one plane per host plus
    the switch/uplink and control planes. Spans keep their cross-plane
    trace/parent ids in [args], so one RPC's causal tree reads across
    processes in the viewer. *)

val trace_events : ?process:string -> Tracer.t -> Json.t
(** [trace_events ~process tracer] is
    [multi_trace_events [ (process, tracer) ]]: a single-process
    document, pid 1. [process] defaults to ["lauberhorn-sim"]. *)
