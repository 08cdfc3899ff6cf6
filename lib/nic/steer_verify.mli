(** Static verifier for {!Steer} programs.

    An abstract-interpretation pass over the program's guard space:
    every guard is a box (a per-field interval conjunction), and the
    verifier proves, for every well-typed program, without running a
    single packet:

    + {b Totality} — every packet matches exactly one target: pairwise
      box-disjointness (per-field interval intersection; a non-empty
      intersection on every shared field is an overlap, reported with a
      concrete witness packet) plus coverage (recursive splitting of
      the constrained field space along rule boundaries; an uncovered
      cell without a default is loss, reported with a witness packet).
    + {b Target validity} — queue ids in range, hash-lane windows
      inside the queue array, worker ids within the worker count; and,
      composing with the stale-mirror dispatch semantics
      ({!Protocheck.Steer_model}), any program pinning a [Worker] must
      declare a worker-free [on_dead] fallback — the model checker's
      counterexample trace for the fallback-free case is embedded in
      the diagnostic, so verified programs can never silently strand
      an RPC across [Sched_mirror] updates and worker death.
    + {b Bounded deterministic cost} — a per-packet cost bound computed
      statically from the guard atoms and the most expensive reachable
      target, checked against the environment budget and charged in
      simulation by {!install}.
    + {b Determinism} — programs can only read header/payload-prefix
      bytes ([Payload] indices must sit inside the declared
      guaranteed-parseable prefix) and hash with the pure {!Rss.hash};
      nothing the simlint determinism contract forbids (no clocks, no
      ambient randomness, no mutable state).

    Rejection is a build-time error: [bin/steer_verify] runs this pass
    over every shipped program under [dune build @check]. *)

type env = {
  queues : int;  (** RX queues on the target NIC. *)
  workers : int;  (** Worker ids the scheduler mirror can name. *)
  payload_prefix : int;
      (** Guaranteed-parseable payload prefix (bytes): the only payload
          window steering may read. *)
  cost_budget : int;  (** Per-packet steering budget (ns). *)
}

val default_env : env
(** 4 queues, 4 workers, 32-byte payload prefix, 500 ns budget —
    matches {!Dma_nic.default_config}. *)

type verified
(** A verification certificate: the only way to obtain one is
    {!verify}, and {!install} only accepts certified programs — the
    type system keeps unverified programs off the NIC. *)

val program : verified -> Steer.t
val cost : verified -> int
(** The statically computed worst-case per-packet cost (ns). *)

val verify : env:env -> Steer.t -> (verified, string list) result
(** All diagnostics, each actionable: the offending rule/target, and a
    witness packet for totality violations. *)

val install :
  ?metrics:Obs.Metrics.t ->
  ?alive:(int -> bool) ->
  ?worker_lane:(int -> int) ->
  nic:Dma_nic.t ->
  verified ->
  unit
(** Compile the certified program and install it on the NIC, charging
    its static cost per packet.  The [Rss] target resolves through the
    NIC's own {!Rss.t} ({!Dma_nic.rss}), which also hashes [Hash_lane]
    keys.

    [metrics] registers per-lane steering counters
    ([steer_lane_<i>], one per NIC queue) and a [steer_decisions]
    total on the registry. *)
