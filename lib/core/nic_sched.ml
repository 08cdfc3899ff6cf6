(* An all-float record is stored flat, so updating the EWMA boxes no
   float (a float field of a mixed record would, on every arrival). *)
type ewma = { mutable per_s : float }

type svc_stats = {
  rate : ewma;  (* arrivals/s *)
  mutable last_arrival : Sim.Units.time;  (* [no_arrival] before the first *)
  mutable accepted : int;
  mutable completed : int;
  mutable shedding : bool;  (* admission-control state (hysteretic) *)
}

type t = {
  hi_watermark : int;
  shed : bool;
  shed_hi : int;
  shed_lo : int;
  table : (int, svc_stats) Hashtbl.t;
}

let no_arrival = min_int

(* [Sim.Units.to_float_s], inlined here: a call across the library
   boundary returns its float boxed, once per arrival. *)
let[@inline] seconds d = float_of_int d /. 1_000_000_000.

(* The rate-averaging constant, in seconds, and the per-worker
   utilisation a scale-down must stay under. *)
let ewma_tau = seconds (Sim.Units.us 100)
let target_util = 0.7

let create ?(hi_watermark = 4) ?(shed = false) ?(shed_hi = 16) ?(shed_lo = 4)
    () =
  if shed && (shed_lo < 0 || shed_hi <= shed_lo) then
    invalid_arg "Nic_sched.create: need 0 <= shed_lo < shed_hi";
  {
    hi_watermark;
    shed;
    shed_hi;
    shed_lo;
    table = Hashtbl.create 32;
  }

(* [Hashtbl.find] rather than [find_opt]: the per-arrival lookup
   allocates no option. *)
let stats t service =
  match Hashtbl.find t.table service with
  | s -> s
  | exception Not_found ->
      let s =
        {
          rate = { per_s = 0. };
          last_arrival = no_arrival;
          accepted = 0;
          completed = 0;
          shedding = false;
        }
      in
      Hashtbl.add t.table service s;
      s

let on_arrival t ~service ~now =
  let s = stats t service in
  s.accepted <- s.accepted + 1;
  if not (Int.equal s.last_arrival no_arrival) then begin
    let dt = seconds (max 1 (now - s.last_arrival)) in
    let inst = 1. /. dt in
    (* Time-constant EWMA: weight decays with the gap length, so idle
       periods pull the estimate down. *)
    let alpha = 1. -. exp (-.dt /. ewma_tau) in
    s.rate.per_s <- s.rate.per_s +. (alpha *. (inst -. s.rate.per_s))
  end;
  s.last_arrival <- now

let on_complete t ~service =
  let s = stats t service in
  s.completed <- s.completed + 1

let rate t ~service = (stats t service).rate.per_s
let outstanding t ~service =
  let s = stats t service in
  s.accepted - s.completed

type decision = Steady | Add_worker | Release_worker | Shed

let decide t ~service ~queue_depth ~workers ~handler_time =
  let s = stats t service in
  (* Admission control runs ahead of scaling: once the backlog blows
     through shed_hi the service sheds every arrival until it drains
     back below shed_lo. The wide hysteresis band keeps the gate from
     chattering at a constant arrival rate. *)
  if t.shed then begin
    if s.shedding then begin
      if queue_depth <= t.shed_lo then s.shedding <- false
    end
    else if queue_depth >= t.shed_hi then s.shedding <- true
  end;
  if t.shed && s.shedding then Shed
  else if queue_depth > t.hi_watermark then Add_worker
  else if workers > 1 then begin
    (* Would one fewer worker still sit below the utilisation target? *)
    let per_req = seconds handler_time in
    let util_with = s.rate.per_s *. per_req /. float_of_int (workers - 1) in
    if util_with < target_util *. 0.5 && queue_depth = 0 then
      Release_worker
    else Steady
  end
  else Steady

