(** IPv4 headers (no options): the sizes, protocol number and errors of
    the frame codec ({!Frame}), which reads and writes the header in
    place. *)

val header_size : int
(** 20 bytes (IHL 5). *)

val protocol_udp : int

type error =
  | Truncated
  | Bad_version of int
  | Options_unsupported of int  (** IHL > 5 (carries the IHL). *)
  | Bad_checksum
  | Bad_length of int  (** total_length inconsistent with the buffer. *)

val pp_error : Format.formatter -> error -> unit
