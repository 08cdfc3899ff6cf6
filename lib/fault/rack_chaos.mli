(** The rack-scale chaos driver — the one sanctioned installer of the
    cluster fault seams ({!Cluster.Fabric.set_link_fault},
    {!Cluster.Switch.set_port_wedge} / [set_brownout] /
    [set_partition], {!Cluster.Control.crash} / [restart]); simlint's
    [fault-seam] rule flags cluster fault-state mutation anywhere else
    inside [lib/].

    {!arm} compiles a {!Plan}'s [cluster] schedules into the pure
    time predicates the seams consume and installs them. With
    [Plan.cluster_is_none] it installs {e nothing} — every seam stays
    on its zero-cost disarmed path and the rack's behaviour and
    metrics snapshot are byte-identical to a fault-free build.

    Injection topology: a host's flapping link (and an asymmetric
    partition between it and the Master plane — the master sits behind
    the ToR, so the cut is directional on that host's physical wire)
    is applied on the host's wire, eating frames and control
    closures alike; Host→Host partitions cut at the switch crossbar
    where the (ingress, egress) pair is visible; wedges and brownouts
    are switch-local stall schedules; the master crash/restart is
    scheduled on the fabric's engine. Every loss lands in a counter
    ([fault_link_drops], [switch_port_drops], [switch_partition_drops],
    [ctl_master_restarts], [ctl_epoch_rejections]) — nothing is
    silent, and every predicate is a pure function of simulated time,
    so armed runs stay byte-identical run to run. *)

type t

val arm :
  plan:Plan.t ->
  fabric:Cluster.Fabric.t ->
  control:Cluster.Control.t ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  t
(** Compile and install the plan's cluster fault classes. [metrics] is
    the registry the driver-owned fault counters ([fault_link_flaps],
    the derived [fault_link_drops]) register on — a private one when
    omitted; counters register only for armed fault classes, so a
    fault-free plan leaves any shared registry untouched. Call once
    per rack, before [run]. *)

val link_flaps : t -> int
(** Flap down-edges that have occurred so far (simulated time). *)

