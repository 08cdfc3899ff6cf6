(* Per-shard PDES profiler: the callee behind
   Sim.Shard_engine.set_profiler. Every cell is indexed by shard, and
   only sim-time-deterministic quantities are recorded — so the report
   is byte-identical run to run. *)

type t = {
  shards : int;
  windows : int array;  (* windows this shard executed *)
  idle : int array;  (* windows with zero events *)
  events_total : int array;
  posted_total : int array;
  events : Sim.Histogram.t array;  (* events per window *)
  posted : Sim.Histogram.t array;  (* outbox depth at window end *)
}

let create ~shards =
  if shards <= 0 then invalid_arg "Profiler.create: shards must be positive";
  {
    shards;
    windows = Array.make shards 0;
    idle = Array.make shards 0;
    events_total = Array.make shards 0;
    posted_total = Array.make shards 0;
    events = Array.init shards (fun _ -> Sim.Histogram.create ());
    posted = Array.init shards (fun _ -> Sim.Histogram.create ());
  }

let probe t ~shard ~window_end:_ ~events ~posted =
  t.windows.(shard) <- t.windows.(shard) + 1;
  if events = 0 then t.idle.(shard) <- t.idle.(shard) + 1;
  t.events_total.(shard) <- t.events_total.(shard) + events;
  t.posted_total.(shard) <- t.posted_total.(shard) + posted;
  Sim.Histogram.record t.events.(shard) events;
  Sim.Histogram.record t.posted.(shard) posted

let install t shard_engine =
  if Sim.Shard_engine.shards shard_engine <> t.shards then
    invalid_arg "Profiler.install: shard count mismatch";
  Sim.Shard_engine.set_profiler shard_engine (Some (probe t))

let q h p =
  if Sim.Histogram.count h = 0 then 0 else Sim.Histogram.quantile h p

let hmax h =
  if Sim.Histogram.count h = 0 then 0 else Sim.Histogram.max_value h

(* Lookahead-window utilization in percent: the fraction of this
   shard's windows in which it had any events to run; its complement
   is the idle-window share. Integer arithmetic only. *)
let utilization_pct t shard =
  if t.windows.(shard) = 0 then 0
  else 100 * (t.windows.(shard) - t.idle.(shard)) / t.windows.(shard)

let report_lines t =
  List.init t.shards (fun s ->
      Printf.sprintf
        "shard %d: windows=%d busy=%d idle=%d util=%d%% events/win[p50=%d \
         p99=%d max=%d total=%d] outbox/win[p50=%d p99=%d max=%d total=%d]"
        s t.windows.(s)
        (t.windows.(s) - t.idle.(s))
        t.idle.(s) (utilization_pct t s)
        (q t.events.(s) 0.5)
        (q t.events.(s) 0.99)
        (hmax t.events.(s))
        t.events_total.(s)
        (q t.posted.(s) 0.5)
        (q t.posted.(s) 0.99)
        (hmax t.posted.(s))
        t.posted_total.(s))

(* Fold the per-shard registries into [metrics] in fixed (shard, name)
   order — scalars as counters, distributions merged through
   Sim.Histogram.merge_into. *)
let merge_into_metrics t metrics =
  for s = 0 to t.shards - 1 do
    let name suffix = Printf.sprintf "shard%02d_%s" s suffix in
    Metrics.add (Metrics.counter metrics (name "windows")) t.windows.(s);
    Metrics.add (Metrics.counter metrics (name "idle_windows")) t.idle.(s);
    Metrics.add (Metrics.counter metrics (name "events")) t.events_total.(s);
    Metrics.add (Metrics.counter metrics (name "posted")) t.posted_total.(s);
    Sim.Histogram.merge_into ~src:t.events.(s)
      ~dst:(Metrics.histogram metrics (name "events_per_window"));
    Sim.Histogram.merge_into ~src:t.posted.(s)
      ~dst:(Metrics.histogram metrics (name "outbox_depth"))
  done
