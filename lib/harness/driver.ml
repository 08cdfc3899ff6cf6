type t = {
  name : string;
  ingress : Net.Frame.t -> unit;
  kernel : Osmodel.Kernel.t;
  counters : Sim.Counter.group;
  metrics : Obs.Metrics.t;
}

let make ~name ~ingress ~kernel ~counters ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  { name; ingress; kernel; counters; metrics }
