(* Host-side measurement of the simulations one workload repetition
   runs. The benchmark observes the simulator only from outside, through
   hooks that exist for that purpose: the wall clock and [Gc] around
   each build and each run, and — in a traced repetition — the
   [Fl_prof] frames plus an [Engine] probe. Spans around the
   benchmark's own calls into the system (setup, run, crash, restart,
   client-rate probes) are kept in memory and written out at exit. *)

open Fl_sim
module Prof = Fl_prof.Prof
module Clock = Fl_prof.Clock
module Histogram = Fl_metrics.Histogram

exception Setup_sampled of float
(** Raised by {!simulate} right after the first build when the meter
    only samples set-up time: the build's host seconds. *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

type t = {
  trace : bool;
  setup_only : bool;
  origin : int;  (* host ns the spans are relative to *)
  mutable run_ns : int;
  mutable sim_ns : int;
  mutable events : int;
  mutable minor_words : float;
  mutable major_words : float;
  self_ns : int array;  (* per Fl_prof subsystem, summed over runs *)
  calls : int array;
  mutable sim_peak : int;  (* major heap words, sampled peak of this run *)
  mutable peaks : int list;  (* one per run, newest first *)
  mutable pending_max : int;
  mutable last_ns : int;
  event_ns : Histogram.t;  (* host ns of every 16th event *)
  mutable spans : span list;
  mutable open_spans : int list;
  mutable next_id : int;
}

let n_subs = List.length (Prof.stats ())

let create ?(trace = false) ?(setup_only = false) () =
  { trace;
    setup_only;
    origin = Clock.now_ns_int ();
    run_ns = 0;
    sim_ns = 0;
    events = 0;
    minor_words = 0.;
    major_words = 0.;
    self_ns = Array.make n_subs 0;
    calls = Array.make n_subs 0;
    sim_peak = 0;
    peaks = [];
    pending_max = 0;
    last_ns = 0;
    event_ns = Histogram.create ();
    spans = [];
    open_spans = [];
    next_id = 0 }

let span m name f =
  if not m.trace then f ()
  else begin
    let id = m.next_id in
    m.next_id <- id + 1;
    let parent = match m.open_spans with p :: _ -> p | [] -> -1 in
    m.open_spans <- id :: m.open_spans;
    let t0 = Clock.now_ns_int () - m.origin in
    let close () =
      m.open_spans <- List.tl m.open_spans;
      m.spans <-
        { id; parent; name; t0; t1 = Clock.now_ns_int () - m.origin }
        :: m.spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Observe-only engine probes. Every run samples the major heap every
   256 events — deterministic in the event count, one branch per event
   otherwise. *)
let sample_heap m =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > m.sim_peak then m.sim_peak <- h

let heap_probe m ~now:_ ~processed ~pending:_ =
  if processed land 255 = 0 then sample_heap m

(* A traced run also records queue depth on every event, and the host
   time of every 16th event (clock read after event 15 mod 16, again
   after the next one) — sampling keeps the probe's own cost out of the
   loop time it is meant to expose. *)
let trace_probe m ~now ~processed ~pending =
  if pending > m.pending_max then m.pending_max <- pending;
  (match processed land 15 with
  | 15 -> m.last_ns <- Clock.now_ns_int ()
  | 0 when m.last_ns > 0 ->
      Histogram.record m.event_ns (Clock.now_ns_int () - m.last_ns)
  | _ -> ());
  heap_probe m ~now ~processed ~pending

(* One simulation: [build] is set-up (construction up to the first
   simulated event), [run] advances simulated time. Returns the built
   value and the run's result. Each simulation starts from a collected
   heap, outside the timed region. *)
let simulate m ~label ~build ~engine ~run =
  Gc.full_major ();
  let t0 = Clock.now_ns_int () in
  let c = span m ("setup " ^ label) build in
  if m.setup_only then
    raise (Setup_sampled (float_of_int (Clock.now_ns_int () - t0) /. 1e9));
  let e = engine c in
  let sim0 = Engine.now e and ev0 = Engine.processed e in
  let gc0 = Gc.quick_stat () in
  m.sim_peak <- 0;
  if m.trace then begin
    m.last_ns <- 0;
    Engine.set_probe e (Some (trace_probe m));
    Prof.enable ()
  end
  else Engine.set_probe e (Some (heap_probe m));
  let r0 = Clock.now_ns_int () in
  let r = span m ("run " ^ label) (fun () -> run c) in
  m.run_ns <- m.run_ns + (Clock.now_ns_int () - r0);
  Engine.set_probe e None;
  sample_heap m;
  m.peaks <- m.sim_peak :: m.peaks;
  if m.trace then begin
    Prof.disable ();
    List.iter
      (fun (st : Prof.stat) ->
        let i = (st.Prof.p_sub :> int) in
        m.self_ns.(i) <- m.self_ns.(i) + st.Prof.p_self_ns;
        m.calls.(i) <- m.calls.(i) + st.Prof.p_calls)
      (Prof.stats ())
  end;
  let gc1 = Gc.quick_stat () in
  m.minor_words <- m.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  m.major_words <- m.major_words +. (gc1.Gc.major_words -. gc0.Gc.major_words);
  m.sim_ns <- m.sim_ns + (Engine.now e - sim0);
  m.events <- m.events + (Engine.processed e - ev0);
  (c, r)

let sim_rate m =
  if m.run_ns = 0 then 0. else float_of_int m.sim_ns /. float_of_int m.run_ns

(* Mean over the runs of each run's sampled peak major heap, in MB. *)
let peak_heap_mb m =
  let words =
    float_of_int (List.fold_left ( + ) 0 m.peaks)
    /. float_of_int (max 1 (List.length m.peaks))
  in
  words *. float_of_int (Sys.word_size / 8) /. 1e6

let self_ms m sub = float_of_int m.self_ns.((sub : Prof.sub :> int)) /. 1e6
let calls m sub = m.calls.((sub : Prof.sub :> int))

(* Run time no Fl_prof frame claims: the engine's heap pop and loop,
   plus the sampled probe. *)
let loop_ms m =
  float_of_int (m.run_ns - Array.fold_left ( + ) 0 m.self_ns) /. 1e6

let spans m = List.rev m.spans
