open Fl_sim

type t = {
  config : Config.t;
  mutable ema : float;          (* smoothed proposal delay, ns *)
  mutable prev_ema : float;     (* the r−2 term of the paper's formula *)
  mutable backoff : Time.t option;  (* overrides the EMA after timeouts *)
}

(* N of the §6.1.1 EMA, and the slack factor that sets the timeout
   above the average proposal delay: timeout = slack × EMA(delay). *)
let ema_n = 10
let slack = 4.0

let create (config : Config.t) =
  let init = float_of_int config.Config.initial_timeout in
  { config; ema = init; prev_ema = init; backoff = None }

let clamp config v =
  max config.Config.min_timeout (min config.Config.max_timeout v)

let current t =
  match t.backoff with
  | Some b -> b
  | None ->
      clamp t.config (int_of_float (t.ema *. slack))

let on_success t ~delay =
  let alpha = 2.0 /. float_of_int (ema_n + 1) in
  let next = (alpha *. float_of_int delay) +. ((1.0 -. alpha) *. t.prev_ema) in
  t.prev_ema <- t.ema;
  t.ema <- next;
  t.backoff <- None

let on_timeout t =
  let base = current t in
  t.backoff <- Some (clamp t.config (2 * base))
