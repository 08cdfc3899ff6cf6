type monitor = {
  on_acquire : bytes -> unit;
  on_release : bytes -> unit;
}

(* One size class: a stack of idle buffers of exactly [size] bytes. *)
type size_class = {
  size : int;
  mutable free : bytes array;  (* [0, top) valid *)
  mutable top : int;
  mutable held : int;  (* acquired from this class and not yet released *)
}

type t = {
  buffer_bytes : int;
  mutable classes : size_class array;  (* class k: [buffer_bytes lsl k] *)
  mutable acquired : int;
  mutable released : int;
  mutable created : int;
  mutable high_water : int;
  mutable monitor : monitor option;
}

let new_class ~size ~capacity =
  { size; free = Array.make (max 16 capacity) Bytes.empty; top = 0; held = 0 }

let create ?(prealloc = 0) ~buffer_bytes () =
  if buffer_bytes <= 0 then invalid_arg "Pool.create: buffer_bytes <= 0";
  if prealloc < 0 then invalid_arg "Pool.create: negative prealloc";
  let base = new_class ~size:buffer_bytes ~capacity:prealloc in
  for i = 0 to prealloc - 1 do
    base.free.(i) <- Bytes.create buffer_bytes
  done;
  base.top <- prealloc;
  {
    buffer_bytes;
    classes = [| base |];
    acquired = 0;
    released = 0;
    created = prealloc;
    high_water = 0;
    monitor = None;
  }

let set_monitor t m = t.monitor <- m

(* Add the classes up to [k] the first time a request needs them. *)
let grow_to t k =
  let n = Array.length t.classes in
  t.classes <-
    Array.init (k + 1) (fun i ->
        if i < n then t.classes.(i)
        else new_class ~size:(t.buffer_bytes lsl i) ~capacity:0)

let[@hot_path] rec class_from t len k =
  if t.buffer_bytes lsl k >= len then k else class_from t len (k + 1)

(* The smallest class holding [len] bytes. A byte string is at most
   [Sys.max_string_length] long, so the shift stops before it
   overflows. *)
let[@hot_path] class_index t len =
  if len < 0 || len > Sys.max_string_length then
    invalid_arg "Pool.acquire: length out of range";
  class_from t len 0

let[@hot_path] acquire t ~len =
  let k = class_index t len in
  if k >= Array.length t.classes then grow_to t k;
  let c = t.classes.(k) in
  t.acquired <- t.acquired + 1;
  c.held <- c.held + 1;
  let outstanding = t.acquired - t.released in
  if outstanding > t.high_water then t.high_water <- outstanding;
  let b =
    if c.top > 0 then begin
      c.top <- c.top - 1;
      let b = c.free.(c.top) in
      c.free.(c.top) <- Bytes.empty;
      b
    end
    else begin
      t.created <- t.created + 1;
      (Bytes.create c.size [@alloc_ok])
    end
  in
  (match t.monitor with None -> () | Some m -> m.on_acquire b);
  b

let[@hot_path] release t b =
  let n = Bytes.length b in
  let k = class_index t n in
  if k >= Array.length t.classes || not (Int.equal t.classes.(k).size n) then
    invalid_arg
      (Printf.sprintf "Pool.release: buffer of %d bytes is no class of a %dB pool"
         n t.buffer_bytes);
  let c = t.classes.(k) in
  if c.held <= 0 then invalid_arg "Pool.release: more releases than acquires";
  (* The monitor sees the buffer before it returns to the freelist, so
     a sanitizer can record identity and poison the contents. *)
  (match t.monitor with None -> () | Some m -> m.on_release b);
  t.released <- t.released + 1;
  c.held <- c.held - 1;
  if Int.equal c.top (Array.length c.free) then begin
    let bigger = Array.make (2 * max 1 c.top) Bytes.empty in
    Array.blit c.free 0 bigger 0 c.top;
    c.free <- bigger
  end;
  c.free.(c.top) <- b;
  c.top <- c.top + 1

let acquired t = t.acquired
let released t = t.released
let outstanding t = t.acquired - t.released
let idle t = Array.fold_left (fun acc c -> acc + c.top) 0 t.classes
let created t = t.created
let high_water t = t.high_water
