(** Receive-path hardware pipeline pricing (paper §5.1: "an Ethernet
    frame streams in from the MAC and passes through various
    streaming-mode header decoders").

    Produces the per-stage cost breakdown the step-by-step experiment
    (E2) reports: MAC, header parse/strip, demux + scheduling-state
    lookup, and hardware unmarshal. All of this runs on the NIC and
    consumes zero CPU cycles — that is the point. *)

type breakdown = {
  parse : Sim.Units.duration;
  demux : Sim.Units.duration;
  deser : Sim.Units.duration;
  mirror_lookup : Sim.Units.duration;
  total : Sim.Units.duration;
}

val rx :
  Config.t -> mirror_lookup:Sim.Units.duration -> fields:int ->
  arg_bytes:int -> breakdown
(** Cost of turning a parsed frame's RPC body into a staged CONTROL
    line image. [mirror_lookup] comes from {!Sched_mirror.lookup_cost}.
    The per-byte unmarshal component streams at pipeline rate. *)

val pp : Format.formatter -> breakdown -> unit
