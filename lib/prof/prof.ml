(* Simulator self-profiling: host-time attribution to subsystems.

   The simulated clock tells us where *simulated* time goes; this
   module tells us where the simulator's own *host* time goes — the
   number that decides which optimization is worth doing next.

   Design, following the Engine.set_probe / Cpu.set_probe discipline:

   - Off by default and zero-cost when off: every instrumented site
     guards on [!on] (one load + branch) before touching the clock.
   - Observe-only: enabling profiling reads the monotonic clock and
     bumps private accumulators; it never schedules events, draws
     randomness or mutates protocol state, so traces are byte-identical
     with profiling on or off (pinned-fingerprint tested).
   - Self-time accounting: frames nest (engine dispatch encloses codec
     work encloses nothing…), and each subsystem is credited only with
     its *self* time — elapsed minus time spent in nested frames — so
     the per-subsystem numbers sum to the inclusive time of the
     outermost frames instead of double counting. *)

type sub = int

let engine = 0
let codec_encode = 1
let codec_decode = 2
let sha256 = 3
let wal = 4
let obs = 5

let n_subs = 6

let names =
  [| "engine"; "codec_encode"; "codec_decode"; "sha256"; "wal"; "obs" |]

let on = ref false

(* Injectable clock so tests can drive the accounting with exact
   virtual readings; production always uses the monotonic stub. *)
let clock : (unit -> int64) ref = ref Clock.now_ns

let self_ns = Array.make n_subs 0L
let calls = Array.make n_subs 0

(* Open-frame stack. [child_ns.(d)] accumulates the inclusive time of
   frames already closed underneath depth [d]. *)
let max_depth = 1024
let stack_sub = Array.make max_depth 0
let stack_start = Array.make max_depth 0L
let child_ns = Array.make max_depth 0L
let depth = ref 0

let reset () =
  Array.fill self_ns 0 n_subs 0L;
  Array.fill calls 0 n_subs 0;
  depth := 0

let enable () =
  reset ();
  on := true

let disable () = on := false

let enter sub =
  if sub < 0 || sub >= n_subs then invalid_arg "Prof.enter";
  let d = !depth in
  if d >= max_depth then invalid_arg "Prof.enter: frame stack overflow";
  stack_sub.(d) <- sub;
  stack_start.(d) <- !clock ();
  child_ns.(d) <- 0L;
  depth := d + 1

let leave () =
  let d = !depth - 1 in
  if d < 0 then invalid_arg "Prof.leave: no open frame";
  depth := d;
  let elapsed = Int64.sub (!clock ()) stack_start.(d) in
  let sub = stack_sub.(d) in
  self_ns.(sub) <- Int64.add self_ns.(sub) (Int64.sub elapsed child_ns.(d));
  calls.(sub) <- calls.(sub) + 1;
  if d > 0 then child_ns.(d - 1) <- Int64.add child_ns.(d - 1) elapsed

let frame sub f =
  enter sub;
  match f () with
  | r ->
      leave ();
      r
  | exception e ->
      leave ();
      raise e

type stat = { p_sub : sub; p_name : string; p_self_ns : int; p_calls : int }

let stats () =
  List.init n_subs (fun s ->
      { p_sub = s;
        p_name = names.(s);
        p_self_ns = Int64.to_int self_ns.(s);
        p_calls = calls.(s) })

let attributed_ns () =
  Array.fold_left (fun acc ns -> acc + Int64.to_int ns) 0 self_ns

(* For tests only. *)
let set_clock_for_tests c =
  clock := (match c with Some c -> c | None -> Clock.now_ns)
