(** Per-core cycle ledger.

    Every nanosecond a core is occupied is charged to exactly one kind;
    idle time is whatever remains of the observation window. The
    User/Spin/Stall split is the paper's energy argument (E8): bypass
    burns [Spin], Lauberhorn parks in [Stall] (which a real core spends
    in a low-power stalled load, not executing), the useful work is
    [User]. *)

type kind =
  | User  (** Application code, including RPC handlers. *)
  | Kernel  (** Syscalls, IRQ/softirq, scheduler, context switch. *)
  | Spin  (** Busy-poll loops that found no work. *)
  | Stall  (** Blocked on a deferred cache-line fill. *)

type t

val create : unit -> t
val charge : t -> kind -> Sim.Units.duration -> unit
val charged : t -> kind -> Sim.Units.duration
(** Total charged to a kind so far. *)

val busy : t -> Sim.Units.duration
(** Sum over all kinds. *)

val idle : t -> window:Sim.Units.duration -> Sim.Units.duration
(** [window - busy], clamped at 0. *)

val utilization : t -> window:Sim.Units.duration -> float
(** [busy / window]. *)

val useful_fraction : t -> float
(** [User / busy]; 1.0 when nothing has been charged. *)

val merge : t list -> t
(** Fresh ledger holding the sums (whole-machine view). *)

val reset : t -> unit
