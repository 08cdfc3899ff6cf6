(** Time and frequency arithmetic for the simulator.

    All simulated time is an integer number of nanoseconds held in a
    native [int]. On a 64-bit platform this covers ~292 simulated years,
    far beyond any experiment in this repository. Keeping time integral
    makes event ordering exact and runs reproducible. *)

type time = int
(** Nanoseconds since simulation start. *)

type duration = int
(** A span of simulated time, in nanoseconds. May not be negative. *)

val ns : int -> duration
(** [ns n] is [n] nanoseconds. *)

val us : int -> duration
(** [us n] is [n] microseconds. *)

val ms : int -> duration
(** [ms n] is [n] milliseconds. *)

val s : int -> duration
(** [s n] is [n] seconds. *)

val ns_of_float_us : float -> duration
(** [ns_of_float_us x] converts a fractional microsecond count, rounding
    to the nearest nanosecond. *)

val to_float_us : duration -> float
(** Duration in microseconds, as a float (for reporting). *)

val to_float_ms : duration -> float
(** Duration in milliseconds, as a float (for reporting). *)

val to_float_s : duration -> float
(** Duration in seconds, as a float (for reporting). *)

type freq = { ghz : float }
(** A clock frequency. [{ghz = 2.0}] is a 2 GHz core. *)

val cycles_of_ns : freq -> duration -> float
(** Number of clock cycles elapsing in the given duration. *)

val ns_of_cycles : freq -> float -> duration
(** Duration taken by the given number of cycles, rounded to nearest ns. *)

val pp_duration : Format.formatter -> duration -> unit
(** Render with an adaptive unit: ["382ns"], ["12.40us"], ["3.50ms"],
    ["1.20s"]. *)

val pp_rate : Format.formatter -> float -> unit
(** Render an events-per-second rate: ["1.25M/s"], ["830.0k/s"]. *)
