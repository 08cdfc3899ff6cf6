type kind = Interval | Detail | Instant

type t = {
  id : int;
  parent : int;
  trace_id : int;
  track : int;
  name : string;
  kind : kind;
  seq : int;
  start_time : Sim.Units.time;
  mutable end_time : int;
}

let no_parent = 0
let is_closed s = s.end_time >= 0

let duration s =
  if s.kind = Instant || not (is_closed s) then 0
  else s.end_time - s.start_time

