(* Random, truncated and bit-flipped wire inputs, shared by the codec
   totality properties of test_rpc (RPC frames) and test_lauberhorn
   (CONTROL lines), and random schemas, shared by test_rpc and the
   cross-stack oracle of test_integration. *)

let random_wire_bytes rng n =
  Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng ~bound:256))

(* A well-formed encoding [b], kept whole, cut short, bit-flipped
   (often in its first 40 bytes, the header) or replaced by up to 64
   random bytes. *)
let mangle rng b =
  let len = Bytes.length b in
  match Sim.Rng.int rng ~bound:4 with
  | 0 -> b
  | 1 -> Bytes.sub b 0 (Sim.Rng.int rng ~bound:(len + 1))
  | 2 ->
      for _ = 0 to Sim.Rng.int rng ~bound:3 do
        let bit = Sim.Rng.int rng ~bound:(8 * min len 40) in
        let i = bit / 8 in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))))
      done;
      b
  | _ -> random_wire_bytes rng (Sim.Rng.int rng ~bound:64)

(* A well-formed RPC frame of any kind, with or without a trace
   context. [body] draws the body (default: up to 40 random bytes). *)
let frame ?body rng =
  let kind =
    match Sim.Rng.int rng ~bound:3 with
    | 0 -> Rpc.Wire_format.Request
    | 1 -> Rpc.Wire_format.Response
    | _ -> Rpc.Wire_format.Error_reply (Sim.Rng.int rng ~bound:0x10000)
  in
  let ctx =
    if Sim.Rng.int rng ~bound:2 = 0 then None
    else Some (random_wire_bytes rng Rpc.Wire_format.ctx_size)
  in
  Rpc.Wire_format.encode
    {
      Rpc.Wire_format.rpc_id = Int64.to_int (Sim.Rng.bits64 rng) land max_int;
      service_id = Sim.Rng.int rng ~bound:1_000_000;
      method_id = Sim.Rng.int rng ~bound:0x10000;
      kind;
      ctx;
      body =
        (match body with
        | Some body -> body rng
        | None -> random_wire_bytes rng (Sim.Rng.int rng ~bound:40));
    }

let mangled_frame ?body rng = mangle rng (frame ?body rng)

(* Whether [b] is [orig] cut short: a proper prefix of it. *)
let is_cut ~orig b =
  let n = Bytes.length b in
  n < Bytes.length orig && Bytes.equal b (Bytes.sub orig 0 n)

(* A random schema of nesting depth up to 2. *)
let schema_of_depth rng =
  let rec go depth =
    if depth = 0 then
      match Sim.Rng.int rng ~bound:6 with
      | 0 -> Rpc.Schema.Unit
      | 1 -> Rpc.Schema.Bool
      | 2 -> Rpc.Schema.Int
      | 3 -> Rpc.Schema.Float
      | 4 -> Rpc.Schema.Str
      | _ -> Rpc.Schema.Blob
    else
      match Sim.Rng.int rng ~bound:3 with
      | 0 -> Rpc.Schema.List (go (depth - 1))
      | 1 ->
          Rpc.Schema.Tuple
            (List.init
               (1 + Sim.Rng.int rng ~bound:3)
               (fun _ -> go (depth - 1)))
      | _ -> go 0
  in
  go 2
