(* The cross-fabric trace context: the 16 bytes a frame carries so a
   span opened on one shard can be stitched under a root opened on
   another. Big-endian at fixed offsets, as the wire header is, so the
   layout is fixed and diffable: the trace id a u64 at 0, the parent
   and the origin u32s at 8 and 12. *)

type t = { trace : int; parent : int; origin : int }

let size = 16
let off_parent = 8
let off_origin = 12

let to_bytes c =
  if c.parent < 0 || c.parent > 0xffff_ffff then
    invalid_arg "Context.to_bytes: parent out of u32 range";
  if c.origin < 0 || c.origin > 0xffff_ffff then
    invalid_arg "Context.to_bytes: origin out of u32 range";
  if c.trace < 0 then invalid_arg "Context.to_bytes: negative trace id";
  let b = Bytes.create size in
  Bytes.set_int64_be b 0 (Int64.of_int c.trace);
  Bytes.set_int32_be b off_parent (Int32.of_int c.parent);
  Bytes.set_int32_be b off_origin (Int32.of_int c.origin);
  b

let u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

let of_bytes b =
  if not (Int.equal (Bytes.length b) size) then None
  else
    let trace = Bytes.get_int64_be b 0 in
    (* A trace id is an rpc id: a u64 whose top two bits are clear. *)
    if Int64.compare trace 0L < 0 || Int64.compare trace (Int64.of_int max_int) > 0
    then None
    else
      Some
        { trace = Int64.to_int trace; parent = u32 b off_parent;
          origin = u32 b off_origin }
