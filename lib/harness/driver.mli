(** The uniform face every server stack presents to experiments.

    A driver is "a server machine": frames go in at the NIC ingress,
    response frames come out at the egress the stack was created with,
    and the kernel underneath exposes its cycle ledgers. Benchmarks and
    examples drive Linux-style, kernel-bypass, and Lauberhorn stacks
    through this one record. *)

type t = {
  name : string;
  ingress : Net.Frame.t -> unit;
      (** A request frame arriving at the server NIC. *)
  kernel : Osmodel.Kernel.t;
  counters : Sim.Counter.group;
  metrics : Obs.Metrics.t;
      (** The stack's unified metrics registry — NIC drop/overflow
          gauges, fault-injection counters, pool accounting. Fault-free
          runs leave the fault counters at zero, and zero-valued
          scalars are dropped from {!Obs.Metrics.to_list}, so faultless
          reports are unchanged. *)
}

val make :
  name:string -> ingress:(Net.Frame.t -> unit) -> kernel:Osmodel.Kernel.t ->
  counters:Sim.Counter.group -> ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] defaults to a fresh empty registry. *)
