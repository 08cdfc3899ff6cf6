(** Project-law static analysis over the simulator's sources.

    Seven rules, applied per-file according to its path:

    - {b nondeterminism} (all of [lib/] except [lib/fault]): no ambient
      entropy or wall-clock sources — [Random.*] (the global PRNG and
      any [self_init]), [Unix.*], [Sys.time], randomized hash tables.
      Seeded randomness belongs in [lib/fault] plans and [Sim.Rng].
    - {b polymorphic-compare} ([lib/core], [lib/coherence], [lib/net],
      [lib/sim], [lib/baseline], [lib/harness]): no structural [=]/[<>]/[compare]/[Hashtbl.hash], and
      no [List.mem]/[List.assoc]-family calls that smuggle one in.
      Comparison against a literal constant ([0], ['c'], [1L], [true])
      is exempt — the compiler specializes those to immediate
      comparisons. Use typed comparators ([Int.equal], [String.equal],
      [Option.is_none], …).
    - {b hot-path} (everywhere): the body of a [let f ... = e
      [@@hot_path]] binding must not construct: anonymous closures,
      tuples, records, list cells, constructors with a computed
      argument ([Some x], [Ok x]; static ones like [Some 1] are
      preallocated), strings/bytes (the
      [^]/[String.*]/[Bytes.*]/[*printf] builders), and must not
      partially apply a function defined in the same file. Named local
      [let]-bound helpers are allowed (closed local functions are
      statically allocated). An expression wrapped [(e [@alloc_ok])] is
      exempt, as is everything under [raise]/[invalid_arg]/[failwith]
      and an [Error _] result (error paths may allocate).
    - {b pool-discipline} (everywhere): a top-level binding that calls
      [Pool.acquire] must also call [Pool.release] lexically, or carry
      an [[@ownership_transfer]] annotation (on the binding or on the
      acquire expression) documenting that the buffer escapes to
      another owner.
    - {b obs-gating} ([lib/sim], [lib/cluster]): installing an
      observability hook — [Switch.set_hooks], [Switch.tap],
      [Tracer.enable] — must happen
      under an [if]/[match] whose condition consults a [Config], or be
      explicitly marked [[@obs_gated]]. The disarmed slots are one
      load-and-branch on hot paths; an unconditional install inside
      the library would falsify the zero-cost-when-off claim for every
      user. Experiment/bench/test code is exempt.
    - {b fault-seam} (all of [lib/] except [lib/fault]): calling a
      cluster fault seam — [Switch.set_port_wedge] / [set_brownout] /
      [set_partition], [Fabric.set_link_fault], [Control.crash] /
      [restart] — is
      a finding. Faults belong in a [Fault.Plan] installed by
      [Fault.Rack_chaos], where they stay pure functions of simulated
      time; a direct call is scripted chaos outside the plan,
      invisible to the determinism and conservation contracts.
      Reviewed plumbing (the seam definitions, forwarding wrappers)
      carries a [[@fault_seam]] mark. Experiment/bench/test code is
      exempt.
    - {b steer-seam} (all of [lib/] except [lib/nic]): calling
      [Dma_nic.set_steering] — the raw NIC dispatch-table write — is a
      finding. Steering programs must be statically verified
      ([Steer_verify.verify]: totality, target validity, bounded cost,
      determinism) and installed through [Steer_verify.install], which
      alone charges the proven per-packet cost. Reviewed legacy
      plumbing (the kernel-bypass port→queue table) carries a
      [[@steer_seam]] mark. Experiment/bench/test code is exempt. *)

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
      (** [nondeterminism] | [polymorphic-compare] | [hot-path] |
          [pool-discipline] | [obs-gating] | [fault-seam] |
          [steer-seam] *)
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit

val check_source : path:string -> string -> finding list
(** Lint one compilation unit given as a string, with the rule set the
    project applies at [path] (see module doc). Findings come back in
    source order.
    @raise Syntaxerr.Error (or other parser exceptions) on unparsable
    input. *)

val run : string list -> finding list
(** Walk the given files/directories (recursively, [*.ml] only),
    linting each with its path-derived rule set. *)

val main : unit -> unit
(** CLI entry point: lint [Sys.argv] paths, print findings to stderr
    followed by an always-printed greppable [simlint: N finding(s)]
    summary, and exit 1 if any. With [--json], additionally print the
    findings as a JSON array on stdout. *)
