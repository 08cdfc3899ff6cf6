(** IPv4 headers (no options). *)

type t = {
  dscp : int;
  identification : int;
  ttl : int;
  protocol : int;  (** e.g. {!protocol_udp} *)
  src : Ip_addr.t;
  dst : Ip_addr.t;
  payload_len : int;  (** Length of the L4 segment following the header. *)
}

val header_size : int
(** 20 bytes (IHL 5). *)

val protocol_udp : int

val write : Buf.writer -> t -> unit
(** Emits the header with a correct header checksum. *)

type error =
  | Truncated
  | Bad_version of int
  | Options_unsupported of int  (** IHL > 5 (carries the IHL). *)
  | Bad_checksum
  | Bad_length of int  (** total_length inconsistent with the buffer. *)

val read : Buf.reader -> (t, error) result
(** Validates version, IHL, checksum, and that [total_length] fits in
    the unread portion of the buffer. The reader is left positioned at
    the start of the L4 payload on success. *)

val pp : Format.formatter -> t -> unit
val pp_error : Format.formatter -> error -> unit
