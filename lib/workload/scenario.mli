(** Ready-made service fleets for experiments and examples. *)

type setup = {
  defs : Rpc.Interface.service_def list;
  ports : int array;  (** [ports.(i)] is the UDP port of [List.nth defs i]. *)
}

val echo_fleet : n:int -> ?handler_time:Sim.Units.duration -> unit -> setup
(** [n] independent echo services (blob → blob), each on its own port, with the
    given handler CPU time (default 500 ns). Service [i] has id [100 + i]
    on port [7000 + i], in both fleets. *)

val mixed_fleet : n:int -> Sim.Rng.t -> setup
(** Services with heterogeneous handler times: 70% short (300–800 ns),
    25% medium (2–5 µs), 5% long (20–50 µs) — a microservice-like mix. *)

val port_of : setup -> service_idx:int -> int
val service_id_of : setup -> service_idx:int -> int
val request_schema : setup -> service_idx:int -> method_id:int -> Rpc.Schema.t
(** @raise Invalid_argument on unknown indices. *)
