(* Every experiment section by id, in DESIGN.md's index order. The one
   table both front ends read: bin/figures.exe runs the sections named
   on its command line, bench/main.exe runs these plus its own [micro]
   rows. *)

let all =
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
    ("parallel", Parallel.run);
    ("rack", Rack.run);
    ("obstrace", Obstrace.run);
    ("chaossoak", Chaossoak.run);
    ("steering", Steering.run);
  ]
