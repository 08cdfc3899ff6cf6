type link = {
  drop : float;
  duplicate : float;
  corrupt : float;
  reorder : float;
  reorder_delay : Sim.Units.duration;
  drop_nth : int list;
}

let perfect_link =
  {
    drop = 0.;
    duplicate = 0.;
    corrupt = 0.;
    reorder = 0.;
    reorder_delay = 0;
    drop_nth = [];
  }

let check_prob name p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault.Plan: %s out of [0,1]" name)

let link ?(drop = 0.) ?(duplicate = 0.) ?(corrupt = 0.) ?(reorder = 0.)
    ?(reorder_delay = Sim.Units.us 5) ?(drop_nth = []) () =
  check_prob "drop" drop;
  check_prob "duplicate" duplicate;
  check_prob "corrupt" corrupt;
  check_prob "reorder" reorder;
  if reorder_delay < 0 then invalid_arg "Fault.Plan: negative reorder_delay";
  if List.exists (fun n -> n <= 0) drop_nth then
    invalid_arg "Fault.Plan: drop_nth ordinals are 1-based";
  { drop; duplicate; corrupt; reorder; reorder_delay; drop_nth }

type server_fault = {
  crash_at : Sim.Units.time option;
  crash_after_rpcs : int option;
  downtime : Sim.Units.duration;
  restart : bool;
}

let no_server_fault =
  { crash_at = None; crash_after_rpcs = None; downtime = 0; restart = false }

let server_fault ?crash_at ?crash_after_rpcs ?(downtime = Sim.Units.ms 2)
    ?(restart = true) () =
  (match crash_at with
  | Some at when at < 0 -> invalid_arg "Fault.Plan: negative crash_at"
  | Some _ | None -> ());
  (match crash_after_rpcs with
  | Some n when n <= 0 ->
      invalid_arg "Fault.Plan: crash_after_rpcs must be positive"
  | Some _ | None -> ());
  if downtime < 0 then invalid_arg "Fault.Plan: negative downtime";
  { crash_at; crash_after_rpcs; downtime; restart }

let server_fault_is_none s =
  s.crash_at = None && s.crash_after_rpcs = None

type window = { starts : Sim.Units.time; until : Sim.Units.time }

let window ~starts ~until =
  if starts < 0 then invalid_arg "Fault.Plan: negative window start";
  if until <= starts then invalid_arg "Fault.Plan: empty window";
  { starts; until }

let in_window w t = t >= w.starts && t < w.until

type flap = {
  first_down : Sim.Units.time;
  up_for : Sim.Units.duration;
  down_for : Sim.Units.duration;
  jitter : Sim.Units.duration;
}

let flap ?(first_down = 0) ~up_for ~down_for ?(jitter = 0) () =
  if first_down < 0 then invalid_arg "Fault.Plan: negative first_down";
  if up_for <= 0 then invalid_arg "Fault.Plan: flap up_for must be positive";
  if down_for <= 0 then invalid_arg "Fault.Plan: flap down_for must be positive";
  if jitter < 0 then invalid_arg "Fault.Plan: negative flap jitter";
  if jitter > up_for then
    invalid_arg "Fault.Plan: flap jitter must not exceed up_for";
  { first_down; up_for; down_for; jitter }

(* Avalanching integer hash (xmur-style): the per-cycle jitter draw.
   Pure in (seed, cycle) so every shard computes the same flap edges
   without sharing any RNG state. *)
let hash2 a b =
  let h = (a * 0x2545f491) lxor ((b + 0x7f4a7c15) * 0x61c88647) in
  let h = h lxor (h lsr 16) in
  let h = h * 0x45d9f3b in
  let h = h lxor (h lsr 16) in
  let h = h * 0x45d9f3b in
  (h lxor (h lsr 16)) land max_int

(* The [cycle]-th down-edge instant (jitter applied) — the times the
   chaos driver schedules its flap-transition counting at. *)
let flap_edge ~seed f ~cycle =
  let period = f.up_for + f.down_for in
  let j = if f.jitter = 0 then 0 else hash2 seed cycle mod (f.jitter + 1) in
  f.first_down + (cycle * period) + j

let flap_down_at ~seed f ~at =
  if at < f.first_down then false
  else
    let period = f.up_for + f.down_for in
    let k = (at - f.first_down) / period in
    let off = at - f.first_down - (k * period) in
    let j = if f.jitter = 0 then 0 else hash2 seed k mod (f.jitter + 1) in
    off >= j && off < j + f.down_for

type plane = Host of int | Master

type partition = { srcs : plane list; dsts : plane list; span : window }

let partition ~srcs ~dsts ~span =
  if srcs = [] || dsts = [] then
    invalid_arg "Fault.Plan: partition needs non-empty src and dst planes";
  let check_plane = function
    | Host h when h < 0 -> invalid_arg "Fault.Plan: negative partition host"
    | Host _ | Master -> ()
  in
  List.iter check_plane srcs;
  List.iter check_plane dsts;
  { srcs; dsts; span }

type cluster = {
  flaps : (int * flap) list;
  wedges : (int * window) list;
  brownouts : window list;
  partitions : partition list;
  master : server_fault;
}

let no_cluster =
  {
    flaps = [];
    wedges = [];
    brownouts = [];
    partitions = [];
    master = no_server_fault;
  }

let cluster ?(flaps = []) ?(wedges = []) ?(brownouts = []) ?(partitions = [])
    ?(master = no_server_fault) () =
  if List.exists (fun (h, _) -> h < 0) flaps then
    invalid_arg "Fault.Plan: negative flap host";
  if List.exists (fun (p, _) -> p < 0) wedges then
    invalid_arg "Fault.Plan: negative wedge port";
  if master.crash_after_rpcs <> None then
    invalid_arg "Fault.Plan: master faults are time-triggered only";
  { flaps; wedges; brownouts; partitions; master }

let cluster_is_none c =
  c.flaps = [] && c.wedges = [] && c.brownouts = [] && c.partitions = []
  && server_fault_is_none c.master

type t = {
  seed : int;
  wire : link;
  nic : link;
  fill_delay : float;
  fill_delay_ns : Sim.Units.duration;
  server : server_fault;
  cluster : cluster;
}

let none =
  {
    seed = 0;
    wire = perfect_link;
    nic = perfect_link;
    fill_delay = 0.;
    fill_delay_ns = 0;
    server = no_server_fault;
    cluster = no_cluster;
  }

let make ?(seed = 0x5eed) ?(wire = perfect_link) ?(nic = perfect_link)
    ?(fill_delay = 0.) ?(fill_delay_ns = Sim.Units.ms 20)
    ?(server = no_server_fault) ?(cluster = no_cluster) () =
  check_prob "fill_delay" fill_delay;
  if fill_delay_ns < 0 then invalid_arg "Fault.Plan: negative fill_delay_ns";
  { seed; wire; nic; fill_delay; fill_delay_ns; server; cluster }

let derived_seed t ~salt = t.seed + (salt * 0x61c88647)
let derived_rng t ~salt = Sim.Rng.create ~seed:(derived_seed t ~salt)

(* Salt namespace for per-link flap jitter streams — decorrelated from
   the injector salts used by Harness.Chaos / Dma_nic / Home_agent. *)
let flap_salt = 0x11f1a9

let flap_seed t ~host = derived_seed t ~salt:(flap_salt + host)

let flap_down t ~host ~at =
  match List.assoc_opt host t.cluster.flaps with
  | None -> false
  | Some f -> flap_down_at ~seed:(flap_seed t ~host) f ~at
