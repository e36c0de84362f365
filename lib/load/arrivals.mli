(** Compound open-loop arrival process.

    Rate at time [t] is

    {v λ(t) = rate · (1 + amplitude·sin(2πt/period)) · surge(t) v}

    — a Poisson base modulated by a diurnal sinusoid and multiplicative
    flash-crowd windows. Deterministic given the {!Fl_sim.Rng}
    stream. *)

open Fl_sim

type surge = { from_ : Time.t; until : Time.t; factor : float }
(** Multiplicative rate spike over [[from_, until)); overlapping
    surges compound. *)

type t

val create :
  ?amplitude:float ->
  ?period:Time.t ->
  ?surges:surge list ->
  rate_per_s:float ->
  unit ->
  t
(** [amplitude] in [0, 1) (default 0 — flat); [period] defaults to 24
    simulated hours. *)

val expected_in : t -> from_:Time.t -> until:Time.t -> float
(** Expected arrivals over a window (numeric integral of λ) — the
    analytic reference for the rate-accuracy test. *)

val next_gap : t -> Rng.t -> now:Time.t -> Time.t
(** Gap to the next arrival after [now], exact per-event sampling by
    thinning against the peak of λ. *)

val count_in : t -> Rng.t -> now:Time.t -> dt:Time.t -> int
(** Poisson count of arrivals in [[now, now+dt)] at the mid-tick rate
    — how the aggregate source batches a million clients into one
    event per tick. Accurate while [dt] is small against [period] and
    surge edges. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson draw (Knuth below mean 30, rounded normal above). *)
