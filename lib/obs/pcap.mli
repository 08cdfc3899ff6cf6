(** Pcap capture of simulated wire traffic.

    Frames crossing the simulated wire are serialized with
    {!Net.Frame.encode} and written in classic libpcap format with
    nanosecond timestamps (magic [0xa1b23c4d], LinkType Ethernet), so
    a simulation run can be opened in Wireshark/tcpdump. The
    {!records} reader walks a capture back into per-frame slices that
    re-parse through {!Net.Frame.parse_slice} — the roundtrip the test
    suite checks. *)

type t

val create : unit -> t
(** An empty capture; stored frame bytes are truncated to a snaplen of
    65535, as in real captures. *)

val add_frame : t -> time:Sim.Units.time -> Net.Frame.t -> unit
(** Append one frame stamped at the given simulated time. *)

val to_bytes : t -> bytes
(** Global header followed by the records, append order preserved. *)

val write_file : t -> file:string -> unit

val records : bytes -> ((Sim.Units.time * Net.Slice.t) list, string) result
(** Parse a capture produced by {!to_bytes}: each record as its
    timestamp and a zero-copy window of its frame bytes. Rejects
    unknown magics and truncated records. *)
