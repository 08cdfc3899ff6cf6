(** The name of the engine's event queue.

    {!Engine} runs on one queue, the binary {!Event_heap}. This module
    is kept only because perfbench's ledger compiles against it: it
    prints which queue a run used
    ([Sim.Scheduler.kind_name (Sim.Engine.scheduler_kind e)]); there is
    nothing to select. *)

type kind = Heap

val kind_name : kind -> string
