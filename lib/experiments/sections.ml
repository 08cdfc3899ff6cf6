(* Every experiment section by id, in DESIGN.md's index order. The one
   table bin/figures.exe reads: it runs the sections named on its
   command line, or all of them in this order, and fails on any claim
   a section returns that does not hold. Each id has a snapshot in
   test/baseline. *)

let all : (string * (unit -> Common.claim list)) list =
  [
    ("fig2", Fig2.run);
    ("steps", Steps.run);
    ("dispatch", Dispatch.run);
    ("crossover", Crossover.run);
    ("tryagain", Tryagain.run);
    ("loadsweep", Loadsweep.run);
    ("dynamic", Dynamic.run);
    ("energy", Energy.run);
    ("scaling", Scaling.run);
    ("modelcheck", Modelcheck.run);
    ("encrypt", Encrypt.run);
    ("losssweep", Losssweep.run);
    ("trace", Trace.run);
    ("failover", Failover.run);
    ("rack", Rack.run);
    ("obstrace", Obstrace.run);
    ("chaossoak", Chaossoak.run);
    ("steering", Steering.run);
  ]
