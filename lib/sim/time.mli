(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation. A 63-bit OCaml [int] covers ~292 years, far beyond any
    experiment. Integer time keeps the event queue total order exact
    and the simulation bit-for-bit deterministic. *)

type t = int

val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

val of_float_s : float -> t
(** Seconds (float) to simulated time, rounded to nearest ns. *)

val to_float_s : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit. *)
