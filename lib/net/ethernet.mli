(** Ethernet II framing (untagged): the sizes and the one EtherType the
    frame codec ({!Frame}) uses. *)

val header_size : int
(** 14 bytes: two addresses plus the EtherType. *)

val min_frame_size : int
(** 60 bytes excluding FCS; shorter frames are padded on the wire. *)

val ethertype_ipv4 : int
