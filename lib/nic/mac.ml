type t = {
  engine : Sim.Engine.t;
  pipeline_delay : Sim.Units.duration;
  sink : Net.Frame.t -> unit;
}

let create engine ?(pipeline_delay = 300) ~sink () =
  if pipeline_delay < 0 then invalid_arg "Mac.create: negative delay";
  { engine; pipeline_delay; sink }

let rx t frame =
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.pipeline_delay (fun () ->
         t.sink frame))

