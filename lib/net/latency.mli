(** One-way propagation-delay models for node pairs.

    Real clouds show right-skewed delay distributions; we model
    single-DC links as log-normal around a sub-millisecond median and
    geo links via an RTT matrix plus jitter. Sampling is per message
    and drawn from the experiment's seeded RNG. *)

open Fl_sim

type t =
  | Constant of Time.t
      (** Fixed one-way delay. *)
  | Lognormal of { median : Time.t; sigma : float }
      (** Log-normal with the given median and shape [sigma]. *)
  | Matrix of { base : Time.t array array; jitter : float }
      (** [base.(src).(dst)] one-way delay, multiplied by a log-normal
          factor with shape [jitter] (0 disables jitter). *)

val single_dc : t
(** Intra-datacenter profile: log-normal, 250 µs median. *)

val sample : t -> Rng.t -> src:int -> dst:int -> Time.t
(** Draw a one-way delay for a message. Self-delivery (src = dst)
    costs a fixed small loopback latency. *)
