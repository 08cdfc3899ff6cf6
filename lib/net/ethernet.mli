(** Ethernet II framing (untagged). *)

type t = {
  dst : Mac_addr.t;
  src : Mac_addr.t;
  ethertype : int;  (** e.g. {!ethertype_ipv4} *)
}

val header_size : int
(** 14 bytes: two addresses plus the EtherType. *)

val min_frame_size : int
(** 60 bytes excluding FCS; shorter frames are padded on the wire. *)

val ethertype_ipv4 : int

val write : Buf.writer -> t -> unit

val read : Buf.reader -> t
(** @raise Buf.Out_of_bounds on a truncated header. *)

val pp : Format.formatter -> t -> unit
