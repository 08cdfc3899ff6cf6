(** A per-core FIFO run queue.

    FIFO matches the throughput-oriented, largely non-preemptive kernels
    the paper targets in data centers. Dead or migrated threads are
    skipped lazily on pop. *)

type t

val create : unit -> t
val enqueue : t -> Proc.thread -> unit
(** @raise Invalid_argument if the thread is already queued here. *)

val pop : t -> Proc.thread option
(** Earliest still-[Ready] thread, skipping stale entries. *)

val length : t -> int
(** Upper bound on queued runnable threads (stale entries may inflate
    it until popped); cheap, used for load balancing heuristics. *)

val is_empty : t -> bool
