(* E12 (extension) — §6: "encryption can be handled with fairly
   standard techniques."

   Analytic comparison of the two standard techniques (inline NIC
   AES-GCM vs CPU AES-NI), then a measured ablation: the full
   Lauberhorn stack with inline encryption on vs off. The inline engine
   adds a flat ~100 ns of pipeline and zero CPU; doing the same work on
   the CPU would cost cycles per byte on the data path. *)

let run () =
  Common.section "E12 (extension): inline NIC encryption vs CPU encryption";
  Common.table
    ~header:[ "frame"; "NIC inline AES-GCM"; "CPU AES-NI" ]
    (List.map
       (fun bytes ->
         [
           Printf.sprintf "%dB" bytes;
           Common.ns (Lauberhorn.Crypto.cost Lauberhorn.Crypto.aes_gcm_nic ~bytes);
           Common.ns (Lauberhorn.Crypto.cost Lauberhorn.Crypto.aes_gcm_cpu ~bytes);
         ])
       [ 64; 256; 1_500; 4_096 ]);
  Format.printf "@.";
  let measure encrypt =
    Common.open_loop_run ~ncores:4 ~rate:100_000.
      ~horizon:(Sim.Units.ms 20)
      (Common.Lauberhorn
         ( Lauberhorn.Config.with_encryption Lauberhorn.Config.enzian encrypt,
           Lauberhorn.Sched_mirror.Push ))
  in
  let plain = measure false in
  let enc = measure true in
  Common.table
    ~header:[ "lauberhorn"; "p50"; "p99"; "cpu-ns/rpc" ]
    (List.map
       (fun (label, m) ->
         [
           label;
           Common.ns m.Common.p50;
           Common.ns m.Common.p99;
           Common.ns
             ((m.Common.user_ns + m.Common.kernel_ns)
             / max 1 m.Common.completed);
         ])
       [ ("plaintext", plain); ("inline AES-GCM", enc) ]);
  let delta = enc.Common.p50 - plain.Common.p50 in
  let cheap =
    {
      Common.id = "E12.inline_cost";
      holds = delta >= 0 && delta < Sim.Units.ns 500;
    }
  in
  Common.note
    "paper expectation: encryption is a solved, cheap add-on when the";
  Common.note "NIC does it inline.";
  Common.note
    "measured: +%s p50 for encrypt+decrypt, identical CPU cost%s"
    (Common.ns delta)
    (Common.verdict cheap);
  [ cheap ]
