type kind = User | Kernel | Spin | Stall

type t = {
  mutable user : int;
  mutable kernel : int;
  mutable spin : int;
  mutable stall : int;
}

let create () = { user = 0; kernel = 0; spin = 0; stall = 0 }

let charge t kind d =
  if d < 0 then invalid_arg "Cpu_account.charge: negative duration";
  match kind with
  | User -> t.user <- t.user + d
  | Kernel -> t.kernel <- t.kernel + d
  | Spin -> t.spin <- t.spin + d
  | Stall -> t.stall <- t.stall + d

let charged t = function
  | User -> t.user
  | Kernel -> t.kernel
  | Spin -> t.spin
  | Stall -> t.stall

let busy t = t.user + t.kernel + t.spin + t.stall
let idle t ~window = max 0 (window - busy t)

let utilization t ~window =
  if window <= 0 then 0. else float_of_int (busy t) /. float_of_int window

let useful_fraction t =
  let b = busy t in
  if b = 0 then 1. else float_of_int t.user /. float_of_int b

let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      acc.user <- acc.user + t.user;
      acc.kernel <- acc.kernel + t.kernel;
      acc.spin <- acc.spin + t.spin;
      acc.stall <- acc.stall + t.stall)
    ts;
  acc

let reset t =
  t.user <- 0;
  t.kernel <- 0;
  t.spin <- 0;
  t.stall <- 0

