let small_rpc_sizes =
  (* Body: lognormal with median ~200 B; tail: 2% Pareto into tens of
     KiB, capped implicitly by the callers' frame limits. *)
  Dist.Bimodal
    (0.98, Dist.Lognormal (log 200., 0.8), Dist.Pareto (8_192., 1.3))

let sample_args rng ~schema ~size =
  let target = Dist.sample_int size rng in
  Rpc.Schema.arbitrary schema rng ~size_hint:target

let uniform_pick rng ~services =
  if services <= 0 then invalid_arg "Rpc_mix.uniform_pick: services <= 0";
  Sim.Rng.int rng ~bound:services

let zipf_pick rng zipf = Dist.Zipf.draw zipf rng
