(** Whole Ethernet/IPv4/UDP frames: the unit the simulated wire and the
    NIC models exchange. *)

type endpoint = {
  mac : Mac_addr.t;
  ip : Ip_addr.t;
  port : int;
}
(** One side of a UDP flow. *)

type view = {
  eth : Ethernet.t;
  ip : Ipv4.t;
  udp : Udp.t;
  payload : Slice.t;
}
(** A parsed frame whose payload is a zero-copy window into the wire
    bytes it was parsed from. Valid only as long as the backing buffer
    is (a pooled buffer's view dies at [Pool.release]). *)

type t = {
  eth : Ethernet.t;
  ip : Ipv4.t;
  udp : Udp.t;
  payload : bytes;
}
(** An owning frame. Defined after {!view} so unannotated field
    accesses default here. *)

val make : src:endpoint -> dst:endpoint -> bytes -> t
(** A frame carrying the given UDP payload, with TTL 64 and IP
    identification 0. *)

val make_to_port : src:endpoint -> dst:endpoint -> port:int -> bytes -> t
(** [make_to_port ~src ~dst ~port p] is [make ~src ~dst:{ dst with port } p],
    with no endpoint record built: [dst]'s own port is not read. *)

val reply_to : eth:Ethernet.t -> ip:Ipv4.t -> udp:Udp.t -> bytes -> t
(** [reply_to ~eth ~ip ~udp p] is the frame carrying [p] back to the
    sender of a request with those headers (a frame's or a view's):
    for a request [r], [reply_to ~eth:r.eth ~ip:r.ip ~udp:r.udp p] is
    [make ~src:(dst_endpoint r) ~dst:(src_endpoint r) p], with no
    endpoint record built on the way. *)

val empty : t
(** A frame with zero addresses and no payload: what a vacated slot of
    a {!Sim.Fifo} of frames holds. *)

val wire_size : t -> int
(** Bytes occupying the wire once encoded (after minimum-size padding,
    excluding preamble/FCS/IPG — those are accounted by {!Wire}). *)

val encode_into : t -> bytes -> Slice.t
(** Serialize into a caller-owned (typically {!Pool}) buffer, padding
    to the Ethernet minimum frame size, and return the written window.
    The buffer may be larger than {!wire_size}; its prior contents are
    irrelevant (padding is written explicitly).
    @raise Invalid_argument if the buffer is smaller than [wire_size]. *)

val encode : t -> bytes
(** [encode_into] a fresh exactly-sized buffer. *)

type error =
  | Runt  (** shorter than the 14-byte Ethernet header *)
  | Not_ipv4 of int
  | Not_udp of int
  | Ip_error of Ipv4.error
  | Udp_error of Udp.error

val parse_slice : Slice.t -> (view, error) result
(** Parse and validate wire bytes without copying the payload: headers
    are verified in place and the view's payload aliases the input.
    Ethernet minimum-size padding is tolerated and stripped (the IP
    total length is authoritative). Never raises: every malformed input,
    a runt shorter than the Ethernet header included, is an [Error]. *)

val parse : bytes -> (t, error) result
(** [parse_slice] + {!of_view}: parse into an owning frame. *)

val of_view : view -> t
(** Detach a view from its backing buffer by copying the payload. *)

val src_endpoint : t -> endpoint
val dst_endpoint : t -> endpoint

val pp_error : Format.formatter -> error -> unit
