open Fl_sim

type t =
  | Constant of Time.t
  | Lognormal of { median : Time.t; sigma : float }
  | Matrix of { base : Time.t array array; jitter : float }

let single_dc = Lognormal { median = Time.us 250; sigma = 0.35 }
let loopback = Time.us 5

let sample t rng ~src ~dst =
  if src = dst then loopback
  else
    match t with
    | Constant d -> d
    | Lognormal { median; sigma } ->
        (* mu = ln median so the median of the draw equals [median]. *)
        let mu = log (float_of_int median) in
        Time.ns (int_of_float (Rng.lognormal rng ~mu ~sigma))
    | Matrix { base; jitter } ->
        let b = base.(src).(dst) in
        if jitter <= 0.0 then b
        else
          let factor = Rng.lognormal rng ~mu:0.0 ~sigma:jitter in
          Time.ns (int_of_float (float_of_int b *. factor))
