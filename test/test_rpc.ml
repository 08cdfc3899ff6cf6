(* Tests for the RPC framework: values, schemas, the wire codec, the
   RPC header, service interfaces, the deserialization cost model, and
   reply continuations. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let value_testable =
  Alcotest.testable Rpc.Value.pp Rpc.Value.equal

(* ---------- Value ---------- *)

let test_value_equal () =
  let v = Rpc.Value.Tuple [ Rpc.Value.int 3; Rpc.Value.str "x" ] in
  checkb "equal" true (Rpc.Value.equal v v);
  checkb "not equal" false
    (Rpc.Value.equal v (Rpc.Value.Tuple [ Rpc.Value.int 4; Rpc.Value.str "x" ]));
  checkb "nan-safe float" true
    (Rpc.Value.equal (Rpc.Value.Float Float.nan) (Rpc.Value.Float Float.nan))

let test_value_field_count () =
  checki "scalar" 1 (Rpc.Value.field_count (Rpc.Value.int 1));
  checki "empty list" 1 (Rpc.Value.field_count (Rpc.Value.List []));
  checki "nested" 3
    (Rpc.Value.field_count
       (Rpc.Value.Tuple
          [ Rpc.Value.int 1; Rpc.Value.Tuple [ Rpc.Value.int 2; Rpc.Value.str "a" ] ]))

(* ---------- Schema ---------- *)

let test_schema_conforms () =
  let s = Rpc.Schema.Tuple [ Rpc.Schema.Int; Rpc.Schema.Str ] in
  checkb "conforming" true
    (Rpc.Schema.conforms (Rpc.Value.Tuple [ Rpc.Value.int 1; Rpc.Value.str "a" ]) s);
  checkb "wrong arity" false
    (Rpc.Schema.conforms (Rpc.Value.Tuple [ Rpc.Value.int 1 ]) s);
  checkb "wrong type" false
    (Rpc.Schema.conforms (Rpc.Value.Bool true) Rpc.Schema.Int)

let test_schema_default_conforms () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    let s = Wire_gen.schema_of_depth rng in
    checkb "default conforms" true
      (Rpc.Schema.conforms (Rpc.Schema.default s) s)
  done

let test_schema_arbitrary_conforms () =
  let rng = Sim.Rng.create ~seed:2 in
  for _ = 1 to 100 do
    let s = Wire_gen.schema_of_depth rng in
    let v = Rpc.Schema.arbitrary s rng ~size_hint:64 in
    checkb "arbitrary conforms" true (Rpc.Schema.conforms v s)
  done

(* ---------- Codec ---------- *)

(* The codec before it read and wrote at offsets: a [Cursor] writer and
   reader, varints read into an [Int64] or (for lengths) an [int], and
   every error an exception caught at the top. It is kept here, verbatim
   in its checks and their order, as the reference the offset codec must
   agree with. *)
module Reference = struct
  exception Decode_error of Rpc.Codec.error

  let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

  let unzigzag v =
    Int64.logxor
      (Int64.shift_right_logical v 1)
      (Int64.neg (Int64.logand v 1L))

  let write_varint w v =
    let rec go v =
      let low = Int64.to_int (Int64.logand v 0x7fL) in
      let rest = Int64.shift_right_logical v 7 in
      if rest = 0L then Cursor.write_u8 w low
      else begin
        Cursor.write_u8 w (low lor 0x80);
        go rest
      end
    in
    go v

  let read_varint r =
    let rec go acc shift count =
      if count > 10 then raise (Decode_error Rpc.Codec.Overlong_varint);
      let b = Cursor.read_u8 r in
      let acc =
        Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift)
      in
      if b land 0x80 = 0 then acc else go acc (shift + 7) (count + 1)
    in
    go 0L 0 1

  let rec write_length w n =
    if n < 0x80 then Cursor.write_u8 w n
    else begin
      Cursor.write_u8 w (n land 0x7f lor 0x80);
      write_length w (n lsr 7)
    end

  let rec read_varint_from r acc shift count =
    if count > 10 then raise (Decode_error Rpc.Codec.Overlong_varint);
    let b = Cursor.read_u8 r in
    let acc = if shift < 63 then acc lor ((b land 0x7f) lsl shift) else acc in
    if b land 0x80 = 0 then acc
    else read_varint_from r acc (shift + 7) (count + 1)

  let read_varint_int r = read_varint_from r 0 0 1

  let rec write w (v : Rpc.Value.t) =
    match v with
    | Rpc.Value.Unit -> ()
    | Rpc.Value.Bool b -> Cursor.write_u8 w (if b then 1 else 0)
    | Rpc.Value.Int i -> write_varint w (zigzag i)
    | Rpc.Value.Float f -> Cursor.write_u64 w (Int64.bits_of_float f)
    | Rpc.Value.Str s ->
        write_length w (String.length s);
        Cursor.write_string w s
    | Rpc.Value.Blob b ->
        write_length w (Bytes.length b);
        Cursor.write_bytes w b
    | Rpc.Value.List vs ->
        write_length w (List.length vs);
        List.iter (write w) vs
    | Rpc.Value.Tuple vs -> List.iter (write w) vs

  let encode_at room v =
    let w =
      Cursor.writer_over (Bytes.create (room + Rpc.Codec.encoded_size v))
    in
    Cursor.write_zeros w room;
    write w v;
    Cursor.filled w

  let read_length r =
    let n = read_varint_int r in
    if n < 0 then raise (Decode_error Rpc.Codec.Truncated);
    n

  let rec read_value (s : Rpc.Schema.t) r : Rpc.Value.t =
    match s with
    | Rpc.Schema.Unit -> Rpc.Value.Unit
    | Rpc.Schema.Bool -> Rpc.Value.Bool (Cursor.read_u8 r <> 0)
    | Rpc.Schema.Int -> Rpc.Value.Int (unzigzag (read_varint r))
    | Rpc.Schema.Float ->
        Rpc.Value.Float (Int64.float_of_bits (Cursor.read_u64 r))
    | Rpc.Schema.Str ->
        Rpc.Value.Str
          (Bytes.unsafe_to_string (Cursor.read_bytes r ~len:(read_length r)))
    | Rpc.Schema.Blob -> Rpc.Value.Blob (Cursor.read_bytes r ~len:(read_length r))
    | Rpc.Schema.List elt ->
        let n = read_length r in
        if n > 16_777_216 then raise (Decode_error Rpc.Codec.Truncated);
        Rpc.Value.List (List.init n (fun _ -> read_value elt r))
    | Rpc.Schema.Tuple ss ->
        Rpc.Value.Tuple (List.map (fun s -> read_value s r) ss)

  let decode_sub s b ~pos ~len =
    let r = Cursor.sub_reader b ~pos ~len in
    match read_value s r with
    | v ->
        let rest = Cursor.remaining r in
        if rest = 0 then Ok v else Error (Rpc.Codec.Trailing_bytes rest)
    | exception Decode_error e -> Error e
    | exception Cursor.Out_of_bounds _ -> Error Rpc.Codec.Truncated

  let varint_bytes v =
    let w = Cursor.writer 10 in
    write_varint w v;
    Cursor.contents w
end

let error_testable = Alcotest.testable Rpc.Codec.pp_error ( = )

let result_testable =
  Alcotest.result value_testable error_testable

(* Varints at the edges of the encoding: an Int whose zigzag is each
   value encodes to the reference's bytes and decodes back; the same
   bytes read as a length decode as the reference decodes them,
   including lengths past [max_int] that land negative as an [int]. *)
let test_varint_edges () =
  List.iter
    (fun z ->
      let bytes = Reference.varint_bytes z in
      let v = Rpc.Value.Int (Reference.unzigzag z) in
      checkb (Printf.sprintf "Int with zigzag %Lu encodes" z) true
        (Bytes.equal bytes (Rpc.Codec.encode v));
      check result_testable "and decodes back" (Ok v)
        (Rpc.Codec.decode Rpc.Schema.Int bytes);
      List.iter
        (fun schema ->
          check result_testable "as a length"
            (Reference.decode_sub schema bytes ~pos:0 ~len:(Bytes.length bytes))
            (Rpc.Codec.decode schema bytes))
        Rpc.Schema.[ Blob; Str; List (List Unit) ])
    [
      0L; 1L; 127L; 128L; 300L; 16_777_216L; 16_777_217L;
      Int64.of_int max_int; Int64.max_int; Int64.min_int; -1L
      (* encodes as 2^64-1 *); -2L (* -2 as an [int] *);
    ]

let test_codec_roundtrip_known () =
  let s =
    Rpc.Schema.Tuple
      [ Rpc.Schema.Int; Rpc.Schema.Str; Rpc.Schema.List Rpc.Schema.Bool ]
  in
  let v =
    Rpc.Value.Tuple
      [
        Rpc.Value.Int (-42L);
        Rpc.Value.str "hello";
        Rpc.Value.List [ Rpc.Value.Bool true; Rpc.Value.Bool false ];
      ]
  in
  match Rpc.Codec.decode s (Rpc.Codec.encode v) with
  | Ok v' -> check value_testable "roundtrip" v v'
  | Error e -> Alcotest.failf "decode: %a" Rpc.Codec.pp_error e

let test_codec_encoded_size_matches () =
  let rng = Sim.Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let s = Wire_gen.schema_of_depth rng in
    let v = Rpc.Schema.arbitrary s rng ~size_hint:40 in
    checki "size prediction"
      (Bytes.length (Rpc.Codec.encode v))
      (Rpc.Codec.encoded_size v)
  done

let test_codec_error_cases () =
  (match Rpc.Codec.decode Rpc.Schema.Int (Bytes.make 0 ' ') with
  | Error Rpc.Codec.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "decoded empty");
  (match Rpc.Codec.decode Rpc.Schema.Bool (Bytes.make 3 '\001') with
  | Error (Rpc.Codec.Trailing_bytes 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted trailing");
  (* Truncated string length. *)
  (match Rpc.Codec.decode Rpc.Schema.Str (Reference.varint_bytes 100L) with
  | Error Rpc.Codec.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted truncated string");
  (* Hostile length prefixes: one that is negative after
     [Int64.to_int], and one (max_int) whose end offset overflows. *)
  List.iter
    (fun (schema, hex) ->
      let body =
        Bytes.init (String.length hex / 2) (fun i ->
            Char.chr (int_of_string ("0x" ^ String.sub hex (2 * i) 2)))
      in
      match Rpc.Codec.decode schema body with
      | Error Rpc.Codec.Truncated -> ()
      | Error e -> Alcotest.failf "%s: wrong error: %a" hex Rpc.Codec.pp_error e
      | Ok _ -> Alcotest.failf "%s: accepted a hostile length" hex)
    [
      (Rpc.Schema.Str, "ffffffffffffffffff01");
      (Rpc.Schema.Blob, "ffffffffffffffffff01");
      (Rpc.Schema.Str, "ffffffffffffffff3f");
      (Rpc.Schema.Blob, "ffffffffffffffff3f");
    ];
  (* Ten continuation bytes are overlong even where the buffer ends:
     the eleventh byte is refused before it is looked for. Nine are
     truncated. *)
  List.iter
    (fun (n, expect) ->
      check error_testable
        (Printf.sprintf "%d continuation bytes" n)
        expect
        (match Rpc.Codec.decode Rpc.Schema.Int (Bytes.make n '\x80') with
        | Error e -> e
        | Ok _ -> Alcotest.failf "%d continuation bytes decoded" n))
    [ (9, Rpc.Codec.Truncated); (10, Rpc.Codec.Overlong_varint) ];
  checkb "a range outside the buffer raises Invalid_argument" true
    (match Rpc.Codec.decode_sub Rpc.Schema.Unit (Bytes.create 4) ~pos:2 ~len:3
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let codec_roundtrip_property =
  QCheck.Test.make ~name:"codec decode∘encode = id on conforming values"
    ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let s = Wire_gen.schema_of_depth rng in
      let v = Rpc.Schema.arbitrary s rng ~size_hint:80 in
      match Rpc.Codec.decode s (Rpc.Codec.encode v) with
      | Ok v' -> Rpc.Value.equal v v'
      | Error _ -> false)

(* Both decoders on the same range: the same value or the same error,
   and neither raises. *)
let decoders_agree s b ~pos ~len =
  let outcome decode =
    match decode s b ~pos ~len with
    | r -> r
    | exception e ->
        QCheck.Test.fail_reportf "a decoder raised %s" (Printexc.to_string e)
  in
  match
    (outcome Rpc.Codec.decode_sub, outcome Reference.decode_sub)
  with
  | Ok v, Ok v' -> Rpc.Value.equal v v'
  | Error e, Error e' when e = e' -> true
  | a, b ->
      QCheck.Test.fail_reportf "offset codec %a, cursor codec %a"
        (Alcotest.pp result_testable) a (Alcotest.pp result_testable) b

(* A varint that no conforming value writes: a length of 2^24 + 1 (one
   past the list cap), one past [max_int], ones that land negative, the
   largest a varint holds, a length up to 100,000, or ten or more
   continuation bytes. *)
let hostile_varint rng =
  match Sim.Rng.int rng ~bound:7 with
  | 0 -> Reference.varint_bytes 16_777_217L
  | 1 -> Reference.varint_bytes (Int64.add (Int64.of_int max_int) 1L)
  | 2 -> Reference.varint_bytes (Int64.shift_left 3L 62)
  | 3 -> Reference.varint_bytes (-1L)
  | 4 -> Reference.varint_bytes (-2L)
  | 5 -> Reference.varint_bytes (Int64.of_int (Sim.Rng.int rng ~bound:100_000))
  | _ -> Bytes.make (10 + Sim.Rng.int rng ~bound:3) '\xff'

(* Random schemas and conforming values. The offset encoder writes the
   reference's bytes, at any header room. The encoding, sitting at an
   offset inside a larger buffer, is then kept whole, cut, overwritten
   at random bytes, or has a hostile varint spliced in at a random
   position; both decoders read the same range. *)
let offset_codec_agrees =
  QCheck.Test.make ~name:"offset codec agrees with the cursor codec"
    ~count:2000 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let s = Wire_gen.schema_of_depth rng in
      let v =
        Rpc.Schema.arbitrary s rng ~size_hint:(Sim.Rng.int rng ~bound:200)
      in
      let room = Sim.Rng.int rng ~bound:40 in
      let enc = Rpc.Codec.encode_at room v in
      if not (Bytes.equal enc (Reference.encode_at room v)) then
        QCheck.Test.fail_reportf "encode_at %d: bytes differ" room;
      let body = Bytes.sub enc room (Bytes.length enc - room) in
      let n = Bytes.length body in
      let body =
        match Sim.Rng.int rng ~bound:4 with
        | 0 -> body
        | 1 -> Bytes.sub body 0 (Sim.Rng.int rng ~bound:(n + 1))
        | 2 ->
            if n > 0 then
              for _ = 0 to Sim.Rng.int rng ~bound:3 do
                Bytes.set body (Sim.Rng.int rng ~bound:n)
                  (Char.chr (Sim.Rng.int rng ~bound:256))
              done;
            body
        | _ ->
            let at = Sim.Rng.int rng ~bound:(n + 1) in
            Bytes.concat Bytes.empty
              [ Bytes.sub body 0 at; hostile_varint rng;
                Bytes.sub body at (n - at) ]
      in
      let before = Sim.Rng.int rng ~bound:16 in
      let after = Sim.Rng.int rng ~bound:16 in
      let buf =
        Bytes.cat
          (Wire_gen.random_wire_bytes rng before)
          (Bytes.cat body (Wire_gen.random_wire_bytes rng after))
      in
      decoders_agree s buf ~pos:before ~len:(Bytes.length body)
      && decoders_agree s buf ~pos:before
           ~len:(Bytes.length body + Sim.Rng.int rng ~bound:(after + 1)))

(* Exact minor words per call, against the same loop without the call.
   A 64-byte blob behind 20 bytes of room is an 85-byte buffer: 11
   words and its header. Decoding the blob allocates its 64 bytes (10
   words with the header), the [Blob] (2) and the [Ok] (2). *)
let words_per_call f =
  let n = 10_000 in
  let words_of g =
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (g ()))
    done;
    Gc.minor ();
    Gc.minor_words () -. before
  in
  (words_of f -. words_of (fun () -> 0)) /. float_of_int n

let blob64 = Rpc.Value.Blob (Bytes.make 64 'b')

let test_encode_at_allocates_only_the_buffer () =
  check (Alcotest.float 0.) "encode_at 20 (Blob 64 B): words per call" 12.
    (words_per_call (fun () -> Rpc.Codec.encode_at 20 blob64))

let test_decode_sub_allocates_only_the_value () =
  let b = Rpc.Codec.encode_at 20 blob64 in
  check (Alcotest.float 0.) "decode_sub Blob (64 B): words per call" 14.
    (words_per_call (fun () ->
         Rpc.Codec.decode_sub Rpc.Schema.Blob b ~pos:20 ~len:65))

(* Length prefixes and Int varints against the reference reader on
   1-11 bytes with every continuation bit set but (usually) the last:
   complete varints of each length, truncated ones, the tenth byte at
   shift 63, lengths negative as an [int], and the overlong eleventh
   byte. *)
let varint_prefixes_agree =
  QCheck.Test.make
    ~name:"varint and length prefixes agree with the cursor reader on 1-11 bytes"
    ~count:2000 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let len = 1 + Sim.Rng.int rng ~bound:11 in
      let b =
        Bytes.init len (fun i ->
            let x = Sim.Rng.int rng ~bound:256 in
            let last_continues = Sim.Rng.int rng ~bound:4 = 0 in
            Char.chr
              (if i < len - 1 || last_continues then x lor 0x80
               else x land 0x7f))
      in
      List.for_all
        (fun s -> decoders_agree s b ~pos:0 ~len)
        Rpc.Schema.[ Int; Str; Blob; List Bool; List (List Unit) ])

(* An Int whose zigzag is [n] encodes to [write_varint n]'s bytes, whose
   count is [length_size n]; a blob of [n land 0xfff] bytes carries the
   reference's length prefix. *)
let length_prefix_property =
  QCheck.Test.make ~name:"length prefix = write_varint (Int64.of_int n)"
    ~count:1000 QCheck.int
    (fun x ->
      let n = x land max_int in
      let bytes = Reference.varint_bytes (Int64.of_int n) in
      let blob = Rpc.Value.Blob (Bytes.make (n land 0xfff) 'x') in
      Bytes.equal bytes
        (Rpc.Codec.encode (Rpc.Value.Int (Reference.unzigzag (Int64.of_int n))))
      && Rpc.Codec.length_size n = Bytes.length bytes
      && Bytes.equal (Rpc.Codec.encode blob) (Reference.encode_at 0 blob))

(* ---------- Wire format ---------- *)

let test_wire_format_roundtrip () =
  let msg =
    Rpc.Wire_format.request ~rpc_id:99 ~service_id:7 ~method_id:2
      (Rpc.Value.str "payload")
  in
  (* The value-carrying encoder writes the same bytes as [encode] of
     the message, for every kind, with and without a trace context. *)
  List.iter
    (fun kind ->
      List.iter
        (fun ctx ->
          checkb "encode_value = encode { body = Codec.encode v }" true
            (Bytes.equal
               (Rpc.Wire_format.encode_value ~kind ?ctx ~rpc_id:99
                  ~service_id:7 ~method_id:2 (Rpc.Value.str "payload"))
               (Rpc.Wire_format.encode
                  { (Rpc.Wire_format.with_ctx msg ctx) with kind })))
        [ None; Some (Bytes.make Rpc.Wire_format.ctx_size 'c') ])
    Rpc.Wire_format.[ Request; Response; Error_reply 0xff02 ];
  match Rpc.Wire_format.decode (Rpc.Wire_format.encode msg) with
  | Ok m ->
      checki "rpc_id" 99 m.Rpc.Wire_format.rpc_id;
      checki "service" 7 m.Rpc.Wire_format.service_id;
      checki "method" 2 m.Rpc.Wire_format.method_id;
      checkb "kind" true (m.Rpc.Wire_format.kind = Rpc.Wire_format.Request)
  | Error e -> Alcotest.failf "decode: %a" Rpc.Wire_format.pp_error e

let test_wire_format_response_preserves_ids () =
  let req =
    Rpc.Wire_format.request ~rpc_id:5 ~service_id:1 ~method_id:0
      Rpc.Value.Unit
  in
  let resp = Rpc.Wire_format.response ~of_:req (Rpc.Value.int 3) in
  checki "id" 5 resp.Rpc.Wire_format.rpc_id;
  checkb "kind" true (resp.Rpc.Wire_format.kind = Rpc.Wire_format.Response)

let test_wire_format_errors () =
  (match Rpc.Wire_format.decode (Bytes.make 4 'x') with
  | Error Rpc.Wire_format.Truncated -> ()
  | _ -> Alcotest.fail "short buffer accepted");
  let msg =
    Rpc.Wire_format.request ~rpc_id:1 ~service_id:1 ~method_id:0
      Rpc.Value.Unit
  in
  let b = Rpc.Wire_format.encode msg in
  Bytes.set b 0 'Z';
  (match Rpc.Wire_format.decode b with
  | Error (Rpc.Wire_format.Bad_magic _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let b2 = Rpc.Wire_format.encode msg in
  Bytes.set b2 3 '\009';
  (match Rpc.Wire_format.decode b2 with
  | Error (Rpc.Wire_format.Bad_kind 9) -> ()
  | _ -> Alcotest.fail "bad kind accepted");
  (* the first tag past Error_reply, with and without the context flag *)
  List.iter
    (fun tag_byte ->
      Bytes.set b2 3 (Char.chr tag_byte);
      match Rpc.Wire_format.check b2 with
      | Error (Rpc.Wire_format.Bad_kind 3) -> ()
      | _ -> Alcotest.fail "kind tag 3 accepted")
    [ 3; 0x83 ]

(* A wire id is a u64 whose top two bits are clear: [check] rejects
   every other with [Bad_rpc_id], and 2^62 - 1 (max_int) is read back
   whole. *)
let test_wire_format_id_range () =
  let b =
    Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Request ~rpc_id:max_int
      ~service_id:1 ~method_id:0 Rpc.Value.Unit
  in
  checkb "2^62 - 1 accepted" true (Rpc.Wire_format.check b = Ok ());
  checki "2^62 - 1 read back" max_int (Rpc.Wire_format.rpc_id b);
  List.iter
    (fun id ->
      Bytes.set_int64_be b 12 id;
      checkb
        (Printf.sprintf "id 0x%Lx rejected" id)
        true
        (Rpc.Wire_format.check b = Error Rpc.Wire_format.Bad_rpc_id
        && Rpc.Wire_format.peek b = Error Rpc.Wire_format.Bad_rpc_id))
    [ Int64.shift_left 1L 62; Int64.min_int; -1L; 0x8000_0000_0000_0001L ];
  checkb "a negative id is not written" true
    (match
       Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Request ~rpc_id:(-1)
         ~service_id:1 ~method_id:0 Rpc.Value.Unit
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Reading the id allocates nothing: 10,240 reads, whole-buffer and at
   an offset, against the same loop without the read. *)
let test_wire_format_id_read_allocates_nothing () =
  let n = 10_240 in
  let b =
    Rpc.Wire_format.encode_value ~kind:Rpc.Wire_format.Response
      ~rpc_id:(1 lsl 61) ~service_id:1 ~method_id:0 Rpc.Value.Unit
  in
  let len = Bytes.length b in
  let words_of read =
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (read ()))
    done;
    Gc.minor ();
    Gc.minor_words () -. before
  in
  let base = words_of (fun () -> 0) in
  List.iter
    (fun (name, read) ->
      let words = words_of read -. base in
      checkb
        (Printf.sprintf "%s: %.0f words over %d reads" name words n)
        true (Float.equal words 0.))
    [
      ("rpc_id", fun () -> Rpc.Wire_format.rpc_id b);
      ("rpc_id_sub", fun () -> Rpc.Wire_format.rpc_id_sub b ~off:0 ~len);
    ]

(* [peek] against [decode] on well-formed frames of every kind, with
   and without a trace context, and on the same frames cut short (often
   below the header size), bit-flipped (often in the header) or replaced
   by random bytes: the same error, or the same kind, ids and context.
   The in-place readers are run on every input, so none may raise, and
   must agree with [peek]: [check] answers its error, and on a frame it
   accepts every field reader reads what [peek] does. *)
let readers_agree_with_peek b =
  let rpc_id = Rpc.Wire_format.rpc_id b
  and service_id = Rpc.Wire_format.service_id b
  and method_id = Rpc.Wire_format.method_id b
  and kind = Rpc.Wire_format.kind b
  and is_request = Rpc.Wire_format.is_request b
  and ctx = Rpc.Wire_format.ctx b
  and body_offset = Rpc.Wire_format.body_offset b in
  match (Rpc.Wire_format.check b, Rpc.Wire_format.peek b) with
  | Ok (), Ok h ->
      kind = h.Rpc.Wire_format.kind
      && Bool.equal is_request
           (h.Rpc.Wire_format.kind = Rpc.Wire_format.Request)
      && Int.equal rpc_id h.Rpc.Wire_format.rpc_id
      && service_id = h.Rpc.Wire_format.service_id
      && method_id = h.Rpc.Wire_format.method_id
      && Option.equal Bytes.equal ctx h.Rpc.Wire_format.ctx
      && body_offset
         = Rpc.Wire_format.header_size
           + (if Option.is_some ctx then Rpc.Wire_format.ctx_size else 0)
      && body_offset <= Bytes.length b
  | Error e, Error e' -> e = e'
  | Ok (), Error _ | Error _, Ok _ -> false

(* A frame cut short keeps its header exactly when the cut keeps the
   fixed header and the trace context the frame was encoded with; it
   then decodes to the original header and a prefix of its body. *)
let cut_agrees ~orig b =
  (not (Wire_gen.is_cut ~orig b))
  ||
  match (Rpc.Wire_format.decode orig, Rpc.Wire_format.decode b) with
  | Ok o, cut -> (
      let need =
        Rpc.Wire_format.header_size
        + if Option.is_some o.Rpc.Wire_format.ctx then Rpc.Wire_format.ctx_size
          else 0
      in
      let n = Bytes.length b in
      match cut with
      | Ok m ->
          n >= need
          && m.Rpc.Wire_format.kind = o.Rpc.Wire_format.kind
          && Int.equal m.Rpc.Wire_format.rpc_id o.Rpc.Wire_format.rpc_id
          && m.Rpc.Wire_format.service_id = o.Rpc.Wire_format.service_id
          && m.Rpc.Wire_format.method_id = o.Rpc.Wire_format.method_id
          && Option.equal Bytes.equal m.Rpc.Wire_format.ctx
               o.Rpc.Wire_format.ctx
          && Bytes.equal m.Rpc.Wire_format.body
               (Bytes.sub o.Rpc.Wire_format.body 0 (n - need))
      | Error Rpc.Wire_format.Truncated -> n < need
      | Error _ -> false)
  | Error _, _ -> false

(* [encode_body] writes what [encode] writes for the record of the same
   fields, with and without a trace context, and [decode] reads those
   fields back. *)
let encode_body_is_encode =
  QCheck.Test.make ~name:"encode_body agrees with encode" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      match Rpc.Wire_format.decode (Wire_gen.frame rng) with
      | Error _ -> false
      | Ok m ->
          List.for_all
            (fun ctx ->
              let m = Rpc.Wire_format.with_ctx m ctx in
              let b =
                Rpc.Wire_format.encode_body ~kind:m.Rpc.Wire_format.kind ?ctx
                  ~rpc_id:m.Rpc.Wire_format.rpc_id
                  ~service_id:m.Rpc.Wire_format.service_id
                  ~method_id:m.Rpc.Wire_format.method_id m.Rpc.Wire_format.body
              in
              Bytes.equal b (Rpc.Wire_format.encode m)
              &&
              match Rpc.Wire_format.decode b with
              | Ok d -> d = m
              | Error _ -> false)
            [
              None;
              Some (Wire_gen.random_wire_bytes rng Rpc.Wire_format.ctx_size);
            ])

(* The header as a {!Cursor} writer lays it out, field by field:
   [encode_body] before the header was written in place. *)
let writer_encode_body ~kind ?ctx ~rpc_id ~service_id ~method_id body =
  let ctx_bytes = match ctx with Some c -> Bytes.length c | None -> 0 in
  let w =
    Cursor.writer
      (Rpc.Wire_format.header_size + ctx_bytes + Bytes.length body)
  in
  let tag, code =
    match kind with
    | Rpc.Wire_format.Request -> (0, 0)
    | Rpc.Wire_format.Response -> (1, 0)
    | Rpc.Wire_format.Error_reply c -> (2, c)
  in
  if rpc_id < 0 then
    invalid_arg "Wire_format.write_header_into: negative rpc id";
  Cursor.write_u16 w 0x4c42;
  Cursor.write_u8 w 1;
  Cursor.write_u8 w (tag lor if Option.is_some ctx then 0x80 else 0);
  Cursor.write_u16 w code;
  Cursor.write_u16 w method_id;
  Cursor.write_u32 w service_id;
  Cursor.write_u64 w (Int64.of_int rpc_id);
  Option.iter (Cursor.write_bytes w) ctx;
  Cursor.write_bytes w body;
  Cursor.filled w

(* A u16 or u32 field value, out of range one time in six. *)
let field rng ~max =
  match Sim.Rng.int rng ~bound:6 with
  | 0 -> (
      match Sim.Rng.int rng ~bound:3 with
      | 0 -> -1 - Sim.Rng.int rng ~bound:3
      | 1 -> max + 1 + Sim.Rng.int rng ~bound:3
      | _ -> max)
  | _ -> Sim.Rng.int rng ~bound:(max + 1)

let outcome f =
  match f () with
  | b -> Ok b
  | exception Invalid_argument m -> Error m

(* [write_header_into] over a buffer whose body already sits behind
   [header_room] bytes of reserved room gives exactly [encode_body]'s
   bytes, which are the field-by-field writer's, for every kind, with
   and without a trace context; on a negative rpc id, or a method id,
   service id or error code out of range, all three raise the same
   [Invalid_argument]. *)
let header_in_place_is_encode_body =
  QCheck.Test.make ~name:"in-place header = encode_body" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let kind =
        match Sim.Rng.int rng ~bound:3 with
        | 0 -> Rpc.Wire_format.Request
        | 1 -> Rpc.Wire_format.Response
        | _ -> Rpc.Wire_format.Error_reply (field rng ~max:0xffff)
      in
      let ctx =
        if Sim.Rng.int rng ~bound:2 = 0 then None
        else Some (Wire_gen.random_wire_bytes rng Rpc.Wire_format.ctx_size)
      in
      let rpc_id =
        let bits = Int64.to_int (Sim.Rng.bits64 rng) in
        if Sim.Rng.int rng ~bound:6 = 0 then bits lor min_int
        else bits land max_int
      in
      let service_id = field rng ~max:0xffff_ffff in
      let method_id = field rng ~max:0xffff in
      let body = Wire_gen.random_wire_bytes rng (Sim.Rng.int rng ~bound:80) in
      let room = Rpc.Wire_format.header_room ctx in
      let in_place () =
        (* The room starts as junk: every byte of it is written. *)
        let b = Wire_gen.random_wire_bytes rng (room + Bytes.length body) in
        Bytes.blit body 0 b room (Bytes.length body);
        Rpc.Wire_format.write_header_into ~kind ?ctx ~rpc_id ~service_id
          ~method_id b;
        b
      in
      let want =
        outcome (fun () ->
            writer_encode_body ~kind ?ctx ~rpc_id ~service_id ~method_id body)
      in
      let same = Result.equal ~ok:Bytes.equal ~error:String.equal in
      same (outcome in_place) want
      && same
           (outcome (fun () ->
                Rpc.Wire_format.encode_body ~kind ?ctx ~rpc_id ~service_id
                  ~method_id body))
           want)

let peek_agrees_with_decode =
  QCheck.Test.make ~name:"wire peek agrees with decode" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let orig = Wire_gen.frame rng in
      let b = Wire_gen.mangle rng (Bytes.copy orig) in
      List.for_all
        (fun b -> readers_agree_with_peek b && cut_agrees ~orig b)
        (b :: List.init (Bytes.length orig) (fun n -> Bytes.sub orig 0 n))
      &&
      match (Rpc.Wire_format.peek b, Rpc.Wire_format.decode b) with
      | Ok h, Ok m ->
          h.Rpc.Wire_format.kind = m.Rpc.Wire_format.kind
          && Int.equal h.Rpc.Wire_format.rpc_id m.Rpc.Wire_format.rpc_id
          && h.Rpc.Wire_format.service_id = m.Rpc.Wire_format.service_id
          && h.Rpc.Wire_format.method_id = m.Rpc.Wire_format.method_id
          && Option.equal Bytes.equal h.Rpc.Wire_format.ctx
               m.Rpc.Wire_format.ctx
      | Error e, Error e' -> e = e'
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The in-place decode ([peek], then [Codec.decode_sub] over the body
   range) against [decode] then [Codec.decode] on the same frames, half
   of whose bodies are a real encoding of the schema before mangling:
   the same wire error, the same codec error (trailing bytes included),
   or equal values. *)
let body_schema =
  Rpc.Schema.Tuple [ Rpc.Schema.Int; Rpc.Schema.Str; Rpc.Schema.List Rpc.Schema.Int ]

let schema_body rng =
  if Sim.Rng.int rng ~bound:2 = 0 then
    Wire_gen.random_wire_bytes rng (Sim.Rng.int rng ~bound:40)
  else
    Rpc.Codec.encode
      (Rpc.Schema.arbitrary body_schema rng
         ~size_hint:(Sim.Rng.int rng ~bound:40))

let decode_in_place_agrees =
  QCheck.Test.make ~name:"in-place body decode agrees with decode" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let b = Wire_gen.mangled_frame ~body:schema_body (Sim.Rng.create ~seed) in
      let in_place =
        match Rpc.Wire_format.peek b with
        | Error e -> Error (`Wire e)
        | Ok _ -> (
            let pos = Rpc.Wire_format.body_offset b in
            match
              Rpc.Codec.decode_sub body_schema b ~pos
                ~len:(Bytes.length b - pos)
            with
            | Ok v -> Ok v
            | Error e -> Error (`Codec e))
      in
      let copied =
        match Rpc.Wire_format.decode b with
        | Error e -> Error (`Wire e)
        | Ok m -> (
            match Rpc.Codec.decode body_schema m.Rpc.Wire_format.body with
            | Ok v -> Ok v
            | Error e -> Error (`Codec e))
      in
      match (in_place, copied) with
      | Ok v, Ok v' -> Rpc.Value.equal v v'
      | Error e, Error e' -> e = e'
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The offset readers over a message placed inside junk bytes answer
   exactly what the whole-buffer readers answer on the message alone.
   Each message is placed twice, in junk whose every byte differs
   between the two placements, so a reader that strayed outside
   [off, off+len) would see different bytes. The messages are a
   [Wire_gen] frame mangled (truncated, bit-flipped or random) and
   every cut of the original. *)
let whole_answers b =
  let open Rpc.Wire_format in
  let body =
    match check b with
    | Error _ -> None
    | Ok () ->
        let pos = body_offset b in
        Some (Rpc.Codec.decode_sub body_schema b ~pos ~len:(Bytes.length b - pos))
  in
  (check b, rpc_id b, service_id b, method_id b, ctx b, body_offset b, body)

let sub_answers b ~off ~len =
  let open Rpc.Wire_format in
  let body =
    match check_sub b ~off ~len with
    | Error _ -> None
    | Ok () ->
        let pos = body_offset_sub b ~off ~len in
        Some (Rpc.Codec.decode_sub body_schema b ~pos:(off + pos) ~len:(len - pos))
  in
  ( check_sub b ~off ~len,
    rpc_id_sub b ~off ~len,
    service_id_sub b ~off ~len,
    method_id_sub b ~off ~len,
    ctx_sub b ~off ~len,
    body_offset_sub b ~off ~len,
    body )

let offset_readers_agree =
  QCheck.Test.make ~name:"wire offset readers agree with whole-buffer readers"
    ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let orig = Wire_gen.frame ~body:schema_body rng in
      let mangled = Wire_gen.mangle rng (Bytes.copy orig) in
      List.for_all
        (fun msg ->
          let len = Bytes.length msg in
          let off = Sim.Rng.int rng ~bound:48 in
          let junk =
            Wire_gen.random_wire_bytes rng (off + len + Sim.Rng.int rng ~bound:48)
          in
          let placed flip =
            let b =
              Bytes.map
                (fun c -> if flip then Char.chr (255 - Char.code c) else c)
                junk
            in
            Bytes.blit msg 0 b off len;
            b
          in
          let expected = whole_answers msg in
          sub_answers (placed false) ~off ~len = expected
          && sub_answers (placed true) ~off ~len = expected)
        (mangled :: List.init (Bytes.length orig) (fun n -> Bytes.sub orig 0 n)))

(* ---------- Interface ---------- *)

let test_echo_service () =
  let svc = Rpc.Interface.echo_service ~id:4 in
  match Rpc.Interface.find_method svc 0 with
  | None -> Alcotest.fail "no echo method"
  | Some m ->
      let v = Rpc.Value.Blob (Bytes.of_string "abc") in
      check value_testable "echo" v (m.Rpc.Interface.execute v)

let test_counter_service_stateful () =
  let svc = Rpc.Interface.counter_service ~id:5 in
  let add = Option.get (Rpc.Interface.find_method svc 0) in
  let read = Option.get (Rpc.Interface.find_method svc 1) in
  ignore (add.Rpc.Interface.execute (Rpc.Value.int 10));
  ignore (add.Rpc.Interface.execute (Rpc.Value.int 5));
  check value_testable "sum" (Rpc.Value.Int 15L)
    (read.Rpc.Interface.execute Rpc.Value.Unit)

let test_kv_service () =
  let svc = Rpc.Interface.kv_service ~id:6 () in
  let get = Option.get (Rpc.Interface.find_method svc 0) in
  let put = Option.get (Rpc.Interface.find_method svc 1) in
  let delete = Option.get (Rpc.Interface.find_method svc 2) in
  ignore
    (put.Rpc.Interface.execute
       (Rpc.Value.Tuple [ Rpc.Value.str "k"; Rpc.Value.Blob (Bytes.of_string "v") ]));
  check value_testable "get hit"
    (Rpc.Value.Tuple [ Rpc.Value.Bool true; Rpc.Value.Blob (Bytes.of_string "v") ])
    (get.Rpc.Interface.execute (Rpc.Value.str "k"));
  check value_testable "delete" (Rpc.Value.Bool true)
    (delete.Rpc.Interface.execute (Rpc.Value.str "k"));
  check value_testable "get miss"
    (Rpc.Value.Tuple [ Rpc.Value.Bool false; Rpc.Value.Blob Bytes.empty ])
    (get.Rpc.Interface.execute (Rpc.Value.str "k"))

let test_service_duplicate_methods_rejected () =
  checkb "raises" true
    (try
       let m =
         Rpc.Interface.method_def ~id:0 ~name:"m" ~request:Rpc.Schema.Unit
           ~response:Rpc.Schema.Unit (fun v -> v)
       in
       ignore (Rpc.Interface.service ~id:1 ~name:"dup" [ m; m ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Deser cost ---------- *)

let test_deser_cost_monotone () =
  let p = Rpc.Deser_cost.software in
  let small = Rpc.Deser_cost.cost p ~fields:1 ~bytes:16 in
  let big = Rpc.Deser_cost.cost p ~fields:100 ~bytes:4096 in
  checkb "monotone" true (big > small);
  checkb "nic cheaper" true
    (Rpc.Deser_cost.cost Rpc.Deser_cost.nic_pipeline ~fields:10 ~bytes:256
     < Rpc.Deser_cost.cost p ~fields:10 ~bytes:256)

let test_deser_cost_of_value () =
  let v = Rpc.Value.Tuple [ Rpc.Value.int 1; Rpc.Value.str "abcd" ] in
  let c = Rpc.Deser_cost.cost_of_value Rpc.Deser_cost.software v in
  checkb "positive" true (c > 0)

(* ---------- Continuations ---------- *)

let test_continuation_fire_and_recycle () =
  let t = Rpc.Continuation.create ~initial_capacity:2 () in
  let got = ref [] in
  let id1 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  let id2 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  checki "live" 2 (Rpc.Continuation.live t);
  checkb "fire" true (Rpc.Continuation.fire t id1 "a");
  checkb "double fire" false (Rpc.Continuation.fire t id1 "b");
  checkb "cancel" true (Rpc.Continuation.cancel t id2);
  checki "drained" 0 (Rpc.Continuation.live t);
  (* Recycled ids keep working. *)
  let id3 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  checkb "recycled id valid" true (Rpc.Continuation.fire t id3 "c");
  check (Alcotest.list Alcotest.string) "delivery order" [ "c"; "a" ] !got

let test_continuation_growth () =
  let t = Rpc.Continuation.create ~initial_capacity:2 () in
  let ids = List.init 100 (fun i -> Rpc.Continuation.alloc t (fun _ -> ignore i)) in
  checki "live" 100 (Rpc.Continuation.live t);
  List.iter (fun id -> ignore (Rpc.Continuation.fire t id 0)) ids;
  checki "drained" 0 (Rpc.Continuation.live t)

let test_continuation_unknown_ids () =
  let t : int Rpc.Continuation.t = Rpc.Continuation.create () in
  checkb "fire unknown" false (Rpc.Continuation.fire t 12345 0);
  checkb "fire negative" false (Rpc.Continuation.fire t (-1) 0);
  checkb "cancel unknown" false (Rpc.Continuation.cancel t 99)

(* Freed ids come back last-freed first, as rpc ids that embed them
   expect; once the table has grown, allocating, firing and cancelling
   allocate nothing (10,240 rounds against the same loop without
   them). *)
let test_continuation_lifo_and_allocation_free () =
  let t : int Rpc.Continuation.t = Rpc.Continuation.create () in
  let k _ = () in
  let a = Rpc.Continuation.alloc t k in
  let _b = Rpc.Continuation.alloc t k in
  let c = Rpc.Continuation.alloc t k in
  ignore (Rpc.Continuation.cancel t a);
  ignore (Rpc.Continuation.fire t c 0);
  checki "last freed first" c (Rpc.Continuation.alloc t k);
  checki "then the one before" a (Rpc.Continuation.alloc t k);
  checki "then a fresh id" 3 (Rpc.Continuation.alloc t k);
  (* grow past the initial capacity, then drain *)
  let ids = List.init 100 (fun _ -> Rpc.Continuation.alloc t k) in
  List.iter (fun id -> ignore (Rpc.Continuation.cancel t id)) ids;
  let n = 10_240 in
  let words_of round =
    Gc.minor ();
    let before = Gc.minor_words () in
    for i = 1 to n do
      round i
    done;
    Gc.minor ();
    Gc.minor_words () -. before
  in
  let base = words_of (fun i -> ignore (Sys.opaque_identity i)) in
  let words =
    words_of (fun i ->
        let x = Rpc.Continuation.alloc t k in
        let y = Rpc.Continuation.alloc t k in
        ignore (Sys.opaque_identity (Rpc.Continuation.fire t x i));
        ignore (Sys.opaque_identity (Rpc.Continuation.cancel t y)))
  in
  checkb
    (Printf.sprintf "%.0f words over %d rounds" (words -. base) n)
    true
    (words -. base <= 64.)

let continuation_matches_reference_model =
  QCheck.Test.make
    ~name:"continuation table behaves like a reference map" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      (* op 0 = alloc, 1 = fire nth live id, 2 = cancel nth live id. *)
      let t : int Rpc.Continuation.t = Rpc.Continuation.create () in
      let fired = ref [] in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let expect_fired = ref [] in
      let next_tag = ref 0 in
      let live_ids () =
        Hashtbl.fold (fun id _ acc -> id :: acc) model []
        |> List.sort Int.compare
      in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 ->
              let tag = !next_tag in
              incr next_tag;
              let id =
                Rpc.Continuation.alloc t (fun v -> fired := v :: !fired)
              in
              Hashtbl.replace model id tag
          | 1 -> (
              match live_ids () with
              | [] -> ()
              | ids ->
                  let id = List.nth ids (n mod List.length ids) in
                  let tag = Hashtbl.find model id in
                  Hashtbl.remove model id;
                  expect_fired := tag :: !expect_fired;
                  ignore (Rpc.Continuation.fire t id tag))
          | _ -> (
              match live_ids () with
              | [] -> ()
              | ids ->
                  let id = List.nth ids (n mod List.length ids) in
                  Hashtbl.remove model id;
                  ignore (Rpc.Continuation.cancel t id)))
        ops;
      Rpc.Continuation.live t = Hashtbl.length model
      && !fired = !expect_fired)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rpc"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "field_count" `Quick test_value_field_count;
        ] );
      ( "schema",
        [
          Alcotest.test_case "conforms" `Quick test_schema_conforms;
          Alcotest.test_case "default conforms" `Quick
            test_schema_default_conforms;
          Alcotest.test_case "arbitrary conforms" `Quick
            test_schema_arbitrary_conforms;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint edges" `Quick test_varint_edges;
          Alcotest.test_case "known roundtrip" `Quick
            test_codec_roundtrip_known;
          Alcotest.test_case "size prediction" `Quick
            test_codec_encoded_size_matches;
          Alcotest.test_case "error cases" `Quick test_codec_error_cases;
          Alcotest.test_case "encode_at allocates only the buffer" `Quick
            test_encode_at_allocates_only_the_buffer;
          Alcotest.test_case "decode_sub allocates only the value" `Quick
            test_decode_sub_allocates_only_the_value;
        ]
        @ qsuite
            [
              codec_roundtrip_property;
              varint_prefixes_agree;
              length_prefix_property;
              offset_codec_agrees;
            ] );
      ( "wire_format",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_format_roundtrip;
          Alcotest.test_case "response ids" `Quick
            test_wire_format_response_preserves_ids;
          Alcotest.test_case "errors" `Quick test_wire_format_errors;
          Alcotest.test_case "id range" `Quick test_wire_format_id_range;
          Alcotest.test_case "id read allocates nothing" `Quick
            test_wire_format_id_read_allocates_nothing;
        ]
        @ qsuite
            [
              encode_body_is_encode;
              peek_agrees_with_decode;
              decode_in_place_agrees;
              offset_readers_agree;
              header_in_place_is_encode_body;
            ] );
      ( "interface",
        [
          Alcotest.test_case "echo" `Quick test_echo_service;
          Alcotest.test_case "counter stateful" `Quick
            test_counter_service_stateful;
          Alcotest.test_case "kv store" `Quick test_kv_service;
          Alcotest.test_case "duplicate methods rejected" `Quick
            test_service_duplicate_methods_rejected;
        ] );
      ( "deser_cost",
        [
          Alcotest.test_case "monotone" `Quick test_deser_cost_monotone;
          Alcotest.test_case "of value" `Quick test_deser_cost_of_value;
        ] );
      ( "continuation",
        [
          Alcotest.test_case "fire and recycle" `Quick
            test_continuation_fire_and_recycle;
          Alcotest.test_case "growth" `Quick test_continuation_growth;
          Alcotest.test_case "unknown ids" `Quick test_continuation_unknown_ids;
          Alcotest.test_case "LIFO ids, and no allocation once grown" `Quick
            test_continuation_lifo_and_allocation_free;
        ]
        @ qsuite [ continuation_matches_reference_model ] );
    ]
