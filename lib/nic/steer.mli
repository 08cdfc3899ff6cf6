(** Application-defined receive-side steering programs.

    The paper's NIC does fixed RPC dispatch; this module makes the
    dispatch policy application business (arXiv:2312.04857): a
    restricted, statically verifiable decision DSL over header and
    payload-prefix fields.  A program is a set of guarded rules plus an
    optional default.  The {e declarative} semantics is match-all: a
    packet is dispatched to the target of the unique rule whose guard
    it satisfies, or to the default if no guard matches.  Programs
    where a packet could match two rules (double dispatch) or none and
    no default (loss) are {e rejected statically} by {!Steer_verify} —
    only verified programs can be installed on a NIC, so the compiled
    first-match evaluator and this declarative semantics provably
    coincide.

    Supported policies: key-hash affinity for caches ({!key_affinity}),
    a size-based fast/slow split and priority lanes for
    latency-critical ports (both in {!builtins}), and fallback-to-RSS
    ({!rss_all}). *)

(** Header or payload-prefix field a guard may test.  [Payload i] reads
    UDP payload byte [i] (0 if the payload is shorter — total, but the
    verifier additionally requires [i] to be inside the declared
    guaranteed-parseable prefix). *)
type field =
  | Src_ip
  | Dst_ip
  | Src_port
  | Dst_port
  | Length  (** UDP payload length in bytes. *)
  | Payload of int

type atom = { field : field; lo : int; hi : int }
(** Inclusive interval constraint [lo <= field <= hi]. *)

type guard = atom list
(** Conjunction of atoms; [[]] matches every packet. *)

(** Dispatch target of a rule. *)
type target =
  | Queue of int  (** A fixed RX queue. *)
  | Worker of int
      (** A pinned worker id, resolved through the scheduler mirror;
          requires the program to declare [on_dead]. *)
  | Hash_lane of { key : field list; lanes : int; base : int }
      (** [base + Rss.hash rss (gathered key bytes) mod lanes], [rss] as
          for [Rss]: key-hash affinity over a contiguous lane window. *)
  | Rss  (** Fall back to the NIC's RSS indirection table. *)

type rule = { guard : guard; target : target }

type t = {
  name : string;
  rules : rule list;
  default : target option;  (** Target when no rule matches. *)
  on_dead : target option;
      (** Fallback used when a [Worker] target is dead (required by
          the verifier for any program containing [Worker]). *)
}

val field_domain : field -> int * int
(** Inclusive value domain of a field. *)

val key_width : field list -> int
(** Bytes a [Hash_lane] key gathers (4 per address, 2 per port/length,
    1 per payload byte). *)

val pp_field : Format.formatter -> field -> unit

(** {2 Evaluation} *)

val eval :
  rss:Rss.t ->
  ?alive:(int -> bool) ->
  ?worker_lane:(int -> int) ->
  t ->
  Net.Frame.t ->
  int
(** Reference (naive, declarative) interpreter: scans {e all} rules,
    asserting the verified exactly-one-match property.
    @raise Failure on double match or fallthrough without default —
    impossible for verified programs; kept as a live oracle for the
    QCheck equivalence suite.  [alive] defaults to [fun _ -> true];
    [worker_lane] maps a worker id to its lane (default: identity). *)

val compile :
  rss:Rss.t ->
  ?alive:(int -> bool) ->
  ?worker_lane:(int -> int) ->
  t ->
  Net.Frame.t ->
  int
(** First-match evaluator used on the NIC hot path.  Equivalent to
    {!eval} on verified programs (QCheck-tested).  A program with no
    rules and an [Rss] or [Queue] default compiles to the RSS lookup
    itself or to a constant. *)

(** {2 Shipped programs} *)

val rss_all : t
(** Everything through the RSS indirection table — the identity
    steering program. *)

val key_affinity : ?name:string -> key_off:int -> key_len:int -> lanes:int -> unit -> t
(** Key-hash affinity: hash [key_len] payload bytes at [key_off] with
    {!Rss.hash} into [lanes] lanes, so all requests for one key share a
    lane (cache locality). *)

val builtins : t list
(** All shipped programs, as verified by [bin/steer_verify] at build
    time. *)
