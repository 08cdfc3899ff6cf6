type gate = { mutable shedding : bool }

let gate () = { shedding = false }

let hi_watermark = 4
let shed_hi = 16
let shed_lo = 4

type decision = Steady | Add_worker | Shed

let decide g ~shed ~queue_depth =
  (* Admission control runs ahead of scaling: once the backlog blows
     through shed_hi the service sheds every arrival until it drains
     back to shed_lo. The wide hysteresis band keeps the gate from
     chattering at a constant arrival rate. *)
  if shed then begin
    if g.shedding then begin
      if queue_depth <= shed_lo then g.shedding <- false
    end
    else if queue_depth >= shed_hi then g.shedding <- true
  end;
  if shed && g.shedding then Shed
  else if queue_depth > hi_watermark then Add_worker
  else Steady
