type monitor = {
  on_acquire : bytes -> unit;
  on_release : bytes -> unit;
}

type t = {
  buffer_bytes : int;
  mutable free : bytes array;  (* stack of idle buffers; [0, top) valid *)
  mutable top : int;
  mutable acquired : int;
  mutable released : int;
  mutable created : int;
  mutable high_water : int;
  mutable monitor : monitor option;
}

let create ?(prealloc = 0) ~buffer_bytes () =
  if buffer_bytes <= 0 then invalid_arg "Pool.create: buffer_bytes <= 0";
  if prealloc < 0 then invalid_arg "Pool.create: negative prealloc";
  let t =
    {
      buffer_bytes;
      free = Array.make (max 16 prealloc) Bytes.empty;
      top = 0;
      acquired = 0;
      released = 0;
      created = 0;
      high_water = 0;
      monitor = None;
    }
  in
  for i = 0 to prealloc - 1 do
    t.free.(i) <- Bytes.create buffer_bytes
  done;
  t.top <- prealloc;
  t.created <- prealloc;
  t

let set_monitor t m = t.monitor <- m

let[@hot_path] acquire t =
  t.acquired <- t.acquired + 1;
  let outstanding = t.acquired - t.released in
  if outstanding > t.high_water then t.high_water <- outstanding;
  let b =
    if t.top > 0 then begin
      t.top <- t.top - 1;
      let b = t.free.(t.top) in
      t.free.(t.top) <- Bytes.empty;
      b
    end
    else begin
      t.created <- t.created + 1;
      (Bytes.create t.buffer_bytes [@alloc_ok])
    end
  in
  (match t.monitor with None -> () | Some m -> m.on_acquire b);
  b

let[@hot_path] release t b =
  if not (Int.equal (Bytes.length b) t.buffer_bytes) then
    invalid_arg
      (Printf.sprintf "Pool.release: buffer of %d bytes into a %dB pool"
         (Bytes.length b) t.buffer_bytes);
  if t.released >= t.acquired then
    invalid_arg "Pool.release: more releases than acquires";
  (* The monitor sees the buffer before it returns to the freelist, so
     a sanitizer can record identity and poison the contents. *)
  (match t.monitor with None -> () | Some m -> m.on_release b);
  t.released <- t.released + 1;
  if Int.equal t.top (Array.length t.free) then begin
    let bigger = Array.make (2 * max 1 t.top) Bytes.empty in
    Array.blit t.free 0 bigger 0 t.top;
    t.free <- bigger
  end;
  t.free.(t.top) <- b;
  t.top <- t.top + 1

let acquired t = t.acquired
let released t = t.released
let outstanding t = t.acquired - t.released
let idle t = t.top
let created t = t.created
let high_water t = t.high_water

