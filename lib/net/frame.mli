(** Whole Ethernet/IPv4/UDP frames: the unit the simulated wire and the
    NIC models exchange.

    A frame is its two endpoints and its UDP payload. Every other header
    field is a constant the encoder writes and the parser checks: IPv4
    EtherType, version 4 with IHL 5, DSCP 0, identification 0,
    don't-fragment, TTL 64 and protocol UDP. The IPv4 total length and
    the UDP length follow from the payload. The codec reads and writes
    each field at its fixed offset, without a cursor or header records. *)

type endpoint = {
  mac : Mac_addr.t;
  ip : Ip_addr.t;
  port : int;
}
(** One side of a UDP flow. *)

type view = {
  src : endpoint;
  dst : endpoint;
  payload : Slice.t;
}
(** A parsed frame whose payload is a zero-copy window into the wire
    bytes it was parsed from. Valid only as long as the backing buffer
    is (a pooled buffer's view dies at [Pool.release]). *)

type t = {
  src : endpoint;
  dst : endpoint;
  payload : bytes;
}
(** An owning frame. Defined after {!view} so unannotated field
    accesses default here. *)

val make : src:endpoint -> dst:endpoint -> bytes -> t
(** The frame carrying the given UDP payload from [src] to [dst]. *)

val make_to_port : src:endpoint -> dst:endpoint -> port:int -> bytes -> t
(** [make_to_port ~src ~dst ~port p] is [make ~src ~dst:{ dst with port } p].
    When [dst.port] is already [port], [dst] itself is used and only the
    frame is allocated. *)

val reply_to : src:endpoint -> dst:endpoint -> bytes -> t
(** [reply_to ~src ~dst p] is the frame carrying [p] back to the sender
    of a request from [src] to [dst] (a frame's or a view's endpoints):
    [make ~src:dst ~dst:src p]. It allocates only the frame. *)

val empty : t
(** A frame with zero addresses and no payload: what a vacated slot of
    a {!Sim.Fifo} of frames holds. *)

val wire_size : t -> int
(** Bytes occupying the wire once encoded (after minimum-size padding,
    excluding preamble/FCS/IPG — those are accounted by {!Wire}). *)

val encode_into : t -> bytes -> int
(** Serialize into a caller-owned (typically {!Pool}) buffer from its
    first byte, padding to the Ethernet minimum frame size, and return
    the number of bytes written, {!wire_size}. Allocates nothing. The
    buffer may be larger than {!wire_size}; its prior contents are
    irrelevant (padding is written explicitly).
    @raise Invalid_argument if the buffer is smaller than [wire_size],
    or a port or the IPv4 total length does not fit in 16 bits. *)

val encode : t -> bytes
(** [encode_into] a fresh exactly-sized buffer. *)

type error =
  | Runt  (** shorter than the 14-byte Ethernet header *)
  | Not_ipv4 of int
  | Not_udp of int
  | Ip_error of Ipv4.error
  | Udp_error of Udp.error

val check : bytes -> off:int -> len:int -> (unit, error) result
(** Validate the wire bytes [b[off, off+len)] in place. Checked, in
    this order: runt, EtherType, IPv4 header truncation, version,
    options, header checksum, total length against the bytes present,
    protocol, UDP header truncation, UDP length against the IP payload
    and the UDP checksum (a zero field means "not computed"). The first
    failing check names the error. Allocates nothing but an error, and
    never raises; the range must lie within [b]. *)

(** {2 Readers of a checked frame}

    Each reads one field at its fixed offset from the start [off] of a
    frame {!check} accepted. Ethernet minimum-size padding, and any IP
    payload past the UDP length, are outside the payload they name. *)

val payload_offset : int
(** Where the UDP payload starts, from the frame's start (42). *)

val payload_len : bytes -> off:int -> int
(** The UDP payload's length. *)

val dst_port : bytes -> off:int -> int

val src_endpoint : bytes -> off:int -> endpoint
val dst_endpoint : bytes -> off:int -> endpoint
(** A fresh endpoint record, the readers' one allocation: what outlives
    the buffer (a reply swaps them). *)

val parse_slice : Slice.t -> (view, error) result
(** {!check} over the slice, then the view the readers build: its two
    endpoints, and a payload slice that aliases the input. Allocates
    only the view, its two endpoints, its payload slice and the [Ok].
    Never raises. *)

val parse : bytes -> (t, error) result
(** [parse_slice] + {!of_view}: parse into an owning frame. *)

val of_view : view -> t
(** Detach a view from its backing buffer by copying the payload. *)

val pp_error : Format.formatter -> error -> unit
