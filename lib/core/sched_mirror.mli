(** The NIC's mirror of kernel scheduling state (paper §4–5.2).

    In [Push] mode — the paper's design — the kernel pushes every
    occupancy change over the coherent interconnect; the NIC's view
    lags reality by one store-release latency but costs nothing to
    consult at dispatch time. The [Query] ablation (E3 variant) models
    a conventional untrusted-NIC design in which the NIC must ask the
    host (one MMIO round trip) at each dispatch, showing why sharing
    state beats querying for it. *)

type mode = Push | Query

type t

val create :
  mode:mode -> Coherence.Interconnect.profile -> Osmodel.Kernel.t -> t
(** Installs a context-switch hook on the kernel (Push mode applies the
    update after the push latency; Query mode keeps no copy). *)

val lookup_cost : t -> Sim.Units.duration
(** NIC-side cost of consulting the scheduling state at dispatch time:
    0 in [Push] mode, one MMIO read in [Query] mode. *)

val core_occupant : t -> core:int -> (int * int) option
(** The NIC's belief about the [(pid, tid)] on a core. *)

val kernel_truth : t -> core:int -> (int * int) option
(** The kernel's actual [(pid, tid)] on a core, bypassing the mirror —
    the reference the sanitizer compares {!core_occupant} against. *)

val cores_running : t -> pid:int -> int list
(** Cores believed to run threads of the process. *)

val is_running : t -> pid:int -> bool

val pid_alive : t -> pid:int -> bool
(** The NIC's belief about whether the process exists. In [Push] mode a
    kill becomes visible only after the store-release push lands — the
    stale window during which a dispatch can race a corpse — and a
    respawn likewise. In [Query] mode the kernel's truth is reflected
    immediately (the MMIO cost is the caller's to charge via
    {!lookup_cost}). *)

val on_pid_dead : t -> (int -> unit) -> unit
(** Subscribe to process-death notifications {e as the NIC perceives
    them}: the callback runs when the death push lands (after the lag
    in Push mode, immediately in Query mode), in subscription order.
    This is where the NIC-side teardown sweep hangs. *)

val on_pid_respawn : t -> (int -> unit) -> unit
(** Same, for respawns: runs when the NIC learns the process is back
    (after the lag in Push mode) — where requeueing of retained
    requests hangs. *)

val pushes : t -> int
(** State-update messages received (Push mode: occupancy, death, and
    respawn pushes; Query mode counts lifecycle notifications only). *)

val in_flight_pushes : t -> int
(** Pushes scheduled but not yet landed — nonzero exactly during the
    stale window. The sanitizer's convergence check only compares
    mirror and kernel once this is zero (lag quiesced). Always 0 in
    [Query] mode. *)
