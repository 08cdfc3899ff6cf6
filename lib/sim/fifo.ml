type 'a t = {
  mutable buf : 'a array;  (* a power of two long *)
  mutable head : int;
  mutable len : int;
  empty : 'a;
}

let create empty = { buf = [||]; head = 0; len = 0; empty }

let push q v =
  let cap = Array.length q.buf in
  if Int.equal q.len cap then begin
    let bigger = Array.make (max 8 (2 * cap)) q.empty in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- bigger;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- v;
  q.len <- q.len + 1

let pop q =
  if Int.equal q.len 0 then invalid_arg "Fifo.pop: empty";
  let v = q.buf.(q.head) in
  q.buf.(q.head) <- q.empty;
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  v

let length q = q.len
