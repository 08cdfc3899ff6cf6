(* The cross-fabric trace context: the 16 bytes a frame carries so a
   span opened on one shard can be stitched under a root opened on
   another. Encoded big-endian through Net.Buf, the same writer the
   wire header uses, so the layout is fixed and diffable. *)

type t = { trace : int; parent : int; origin : int }

let size = 16

let to_bytes c =
  if c.parent < 0 || c.parent > 0xffff_ffff then
    invalid_arg "Context.to_bytes: parent out of u32 range";
  if c.origin < 0 || c.origin > 0xffff_ffff then
    invalid_arg "Context.to_bytes: origin out of u32 range";
  let w = Net.Buf.writer size in
  if c.trace < 0 then invalid_arg "Context.to_bytes: negative trace id";
  Net.Buf.write_u64 w (Int64.of_int c.trace);
  Net.Buf.write_u32 w c.parent;
  Net.Buf.write_u32 w c.origin;
  Net.Buf.filled w

let of_bytes b =
  if Bytes.length b <> size then None
  else
    let r = Net.Buf.reader b in
    let trace = Net.Buf.read_u64 r in
    let parent = Net.Buf.read_u32 r in
    let origin = Net.Buf.read_u32 r in
    (* A trace id is an rpc id: a u64 whose top two bits are clear. *)
    if Int64.compare trace 0L < 0 || Int64.compare trace (Int64.of_int max_int) > 0
    then None
    else Some { trace = Int64.to_int trace; parent; origin }

