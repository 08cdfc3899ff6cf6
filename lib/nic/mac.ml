type t = {
  engine : Sim.Engine.t;
  pipeline_delay : Sim.Units.duration;
  sink : Net.Frame.t -> unit;
  in_flight : Net.Frame.t Sim.Fifo.t;
  mutable emit : unit -> unit;
}

(* Every frame takes the same delay, so frames leave in the order they
   arrived: each event pops the oldest. *)
let emit t () = t.sink (Sim.Fifo.pop t.in_flight)

let create engine ?(pipeline_delay = 300) ~sink () =
  if pipeline_delay < 0 then invalid_arg "Mac.create: negative delay";
  let t =
    {
      engine;
      pipeline_delay;
      sink;
      in_flight = Sim.Fifo.create Net.Frame.empty;
      emit = ignore;
    }
  in
  t.emit <- emit t;
  t

let rx t frame =
  Sim.Fifo.push t.in_flight frame;
  ignore (Sim.Engine.schedule_after t.engine ~after:t.pipeline_delay t.emit)
