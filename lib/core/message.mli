(** Byte-level layout of CONTROL cache lines (paper Figure 4).

    The NIC answers a parked load with a carefully prepared cache line
    holding "only the information needed to dispatch an RPC: just the
    arguments and virtual address of the first instruction of the
    target function to jump to". This module is that layout, encoded
    for real into line-sized byte buffers, so tests can check that what
    the CPU decodes is exactly what the NIC staged.

    A request CONTROL line is a 40-byte header plus inline argument
    bytes; arguments beyond the line spill into auxiliary lines, and
    payloads beyond the endpoint window travel by DMA with only the
    header delivered coherently. *)

type request = {
  rpc_id : int;
      (** A wire id, or a negative id of the NIC's own (a worker
          activation): written as a u64 and read back exactly. *)
  service_id : int;
  method_id : int;
  code_ptr : int64;  (** VA of the handler's first instruction. *)
  data_ptr : int64;  (** VA of the endpoint's data area. *)
  total_args : int;  (** Unmarshaled argument bytes in total. *)
  inline_args : Net.Slice.t;  (** The prefix carried in this line. *)
  aux_count : int;  (** Auxiliary lines holding the rest. *)
  via_dma : bool;  (** Large payload: body delivered by DMA. *)
}

type response = {
  resp_rpc_id : int;
  status : int;  (** 0 = success; else application error code. *)
  total_len : int;
  inline_body : Net.Slice.t;
  resp_aux_count : int;
}

type t =
  | Request of request
  | Kernel_dispatch of request
      (** Same body, addressed to a kernel dispatcher CONTROL line
          because no user thread was available (Figure 5 slow path). *)
  | Tryagain
  | Retire  (** Reallocation request to a non-preemptible kthread. *)

val request_header_bytes : int
(** 40 bytes. *)

val response_header_bytes : int
(** 20 bytes. *)

val request_inline_capacity : line_bytes:int -> int
val response_inline_capacity : line_bytes:int -> int

val encode : line_bytes:int -> t -> bytes
(** Render into a fresh line image (length exactly [line_bytes]): the
    [_into] writers over a new buffer.
    @raise Invalid_argument if inline bytes exceed capacity or fields
    are out of range. *)

val write_request_into :
  bytes -> kernel_dispatch:bool -> rpc_id:int -> service_id:int ->
  method_id:int -> code_ptr:int64 -> data_ptr:int64 -> total_args:int ->
  aux_count:int -> via_dma:bool -> bytes -> off:int -> len:int -> unit
(** [write_request_into line ... args ~off ~len] renders a REQUEST line,
    or with [kernel_dispatch] a KERNEL_DISPATCH line, over the whole of
    a caller's line buffer from its fields, the way the NIC writes a
    prepared CONTROL line: every byte is rewritten, so the buffer may be
    reused. The inline arguments are [len] bytes of [args] from [off].
    No request record, no slice, no allocation. {!encode} of a request
    is this writer over the record's fields.
    @raise Invalid_argument if the inline bytes exceed capacity, lie
    outside [args], or a field is out of range. *)

val write_response :
  line_bytes:int -> rpc_id:int -> status:int -> total_len:int ->
  aux_count:int -> bytes -> off:int -> len:int -> bytes
(** {!write_response_into} a fresh line of [line_bytes]. *)

val write_response_into :
  bytes -> rpc_id:int -> status:int -> total_len:int -> aux_count:int ->
  bytes -> off:int -> len:int -> unit
(** [write_response_into line ... body ~off ~len] renders a response
    line over the whole of [line] from its fields, the inline body
    being [len] bytes of [body] from [off]: no response record, no
    slice, no allocation. {!decode_response} reads it back.
    @raise Invalid_argument if the inline bytes exceed capacity, lie
    outside [body], or a field is out of range. *)

(** {1 Reading lines in place}

    The CPU and the NIC read a line's fields where they lie. {!kind}
    and {!response_ok} say whether a line is whole; the field readers
    read one field each and allocate nothing. {!decode} and
    {!decode_response} are defined over these readers, so there is one
    definition of each layout. Every reader is total: on a line that
    is not whole it answers some value but never raises. *)

type kind =
  | Request_line
  | Kernel_dispatch_line
  | Tryagain_line
  | Retire_line
  | Bad_line  (** Exactly the lines {!decode} rejects. *)

val kind : bytes -> kind
(** What {!decode} makes of a line, without building it. *)

val request_rpc_id : bytes -> int
val request_total_args : bytes -> int
val request_via_dma : bytes -> bool

val response_ok : bytes -> bool
(** {!decode_response} accepts the line. *)

val response_rpc_id : bytes -> int
val response_status : bytes -> int
val response_total_len : bytes -> int
val response_inline_len : bytes -> int
val response_aux_count : bytes -> int

val response_inline_is_prefix_of : bytes -> bytes -> off:int -> bool
(** [response_inline_is_prefix_of line body ~off], on a line
    {!response_ok} accepts: the line's inline bytes are a prefix of
    [body] from [off] (of [Bytes.sub body off (Bytes.length body - off)]),
    as [Net.Slice.is_prefix_of] answers on the decoded [inline_body],
    but without the slice or the copy. False when [off] lies outside
    [body]. *)

val decode : bytes -> (t, string) result
(** Decode a line the CPU just loaded: {!kind}, then the readers. The
    inline bytes of the result are a zero-copy view into [b]; they stay
    valid only while the line image is not overwritten. *)

val decode_response : bytes -> (response, string) result
(** Decode a line the NIC just fetched back: {!response_ok}, then the
    readers. Same aliasing rule as {!decode}. *)

val equal : t -> t -> bool
(** Content equality: inline slices are compared by contents, not by
    backing buffer identity. *)

val equal_response : response -> response -> bool

val pp : Format.formatter -> t -> unit
