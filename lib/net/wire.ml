type t = {
  engine : Sim.Engine.t;
  gbps : float;
  propagation : Sim.Units.duration;
  deliver : Frame.t -> unit;
  mutable free_at : Sim.Units.time;
  mutable frames : int;
}

let overhead_bytes = 24 (* 7 preamble + 1 SFD + 4 FCS + 12 IPG *)

let serialization_delay ~gbps ~bytes =
  if gbps <= 0. then invalid_arg "Wire.serialization_delay: rate <= 0";
  let bits = float_of_int ((bytes + overhead_bytes) * 8) in
  int_of_float (Float.round (bits /. gbps))

let create engine ~gbps ~propagation ~deliver () =
  if gbps <= 0. then invalid_arg "Wire.create: rate <= 0";
  if propagation < 0 then invalid_arg "Wire.create: negative propagation";
  { engine; gbps; propagation; deliver; free_at = 0; frames = 0 }

let transmit t frame =
  let size = Frame.wire_size frame in
  let start = max (Sim.Engine.now t.engine) t.free_at in
  let tx_done = start + serialization_delay ~gbps:t.gbps ~bytes:size in
  t.free_at <- tx_done;
  t.frames <- t.frames + 1;
  ignore
    (Sim.Engine.schedule_at t.engine ~at:(tx_done + t.propagation) (fun () ->
         t.deliver frame))

let frames_sent t = t.frames
