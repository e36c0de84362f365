type event = {
  time : Time.t;
  seq : int;
  lane : int;
      (* commutativity metadata: -1 = untagged (timers, fiber wakeups —
         always run in canonical time order); >= 0 names the lane the
         event acts on (one lane per delivery target), making it
         visible to an installed arbiter *)
  cancelled : bool ref;
  action : unit -> unit;
}

type handle = bool ref

type pick = Deliver of int | Drop of int

type arbiter = { horizon : Time.t; choose : lanes:int array -> pick }

type t = {
  mutable now : Time.t;
  queue : event Heap.t;
  mutable next_seq : int;
  mutable stopped : bool;
  mutable processed : int;
  mutable probe : (now:Time.t -> processed:int -> pending:int -> unit) option;
  mutable arbiter : arbiter option;
  mutable arb_dropped : int;
}

let cmp_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create () =
  { now = 0;
    queue = Heap.create ~cmp:cmp_event;
    next_seq = 0;
    stopped = false;
    processed = 0;
    probe = None;
    arbiter = None;
    arb_dropped = 0 }

let set_probe t probe = t.probe <- probe

let default_horizon = Time.us 50

let set_arbiter ?(horizon = default_horizon) t choose =
  t.arbiter <-
    (match choose with
    | None -> None
    | Some choose -> Some { horizon; choose })

let arbiter_dropped t = t.arb_dropped

let now t = t.now

let schedule ?(lane = -1) t ~delay action =
  let delay = max 0 delay in
  let cancelled = ref false in
  Heap.push t.queue
    { time = t.now + delay; seq = t.next_seq; lane; cancelled; action };
  t.next_seq <- t.next_seq + 1;
  cancelled

let cancel handle = handle := true
let stop t = t.stopped <- true
let pending t = Heap.length t.queue
let processed t = t.processed

(* Self-profiling wrap around the event body: with profiling enabled
   the "engine" subsystem is credited with all host time spent
   executing actions (minus whatever nested instrumented subsystems —
   codec, SHA-256, WAL, obs — claim for themselves), which is how the
   perf observatory attributes a run's wall time. A suspending fiber
   simply returns from its action, so the frame always balances. *)
let run_action action =
  if !Fl_prof.Prof.on then Fl_prof.Prof.frame Fl_prof.Prof.engine action
  else action ()

let fire t budget ev =
  t.now <- ev.time;
  t.processed <- t.processed + 1;
  decr budget;
  run_action ev.action;
  match t.probe with
  | None -> ()
  | Some p -> p ~now:t.now ~processed:t.processed ~pending:(Heap.length t.queue)

(* One branch point: [ev] is the earliest queued event and is tagged.
   Collect every other event inside the arbiter's horizon window (the
   frontier of concurrently-pending events), let the arbiter pick one
   tagged candidate to deliver — or drop — and put everything else
   back. The chosen event executes at the window-opening time [ev.time]
   (its own timestamp may be slightly later), so the clock never runs
   ahead of the candidates left in the queue. Untagged events inside
   the window are never offered: they re-enter the heap untouched and
   run in canonical order. *)
let fire_window t arb ~until budget ev =
  let window_end =
    let e = ev.time + arb.horizon in
    match until with Some l when l < e -> l | _ -> e
  in
  let keep = ref [] in
  let cands = ref [ ev ] in
  let rec gather () =
    match Heap.peek t.queue with
    | Some e when e.time <= window_end ->
        ignore (Heap.pop t.queue);
        if !(e.cancelled) then ()
        else if e.lane >= 0 then cands := e :: !cands
        else keep := e :: !keep;
        gather ()
    | _ -> ()
  in
  gather ();
  let cands = Array.of_list (List.sort cmp_event !cands) in
  let lanes = Array.map (fun e -> e.lane) cands in
  let pick = arb.choose ~lanes in
  let restore ~except =
    List.iter (fun e -> Heap.push t.queue e) !keep;
    Array.iteri (fun i e -> if i <> except then Heap.push t.queue e) cands
  in
  match pick with
  | Deliver i when i >= 0 && i < Array.length cands ->
      restore ~except:i;
      fire t budget { (cands.(i)) with time = ev.time }
  | Drop i when i >= 0 && i < Array.length cands ->
      restore ~except:i;
      t.arb_dropped <- t.arb_dropped + 1
  | Deliver _ | Drop _ ->
      invalid_arg "Engine: arbiter pick out of range"

let run ?until ?max_events t =
  t.stopped <- false;
  let budget =
    match max_events with
    | None -> ref min_int (* never reaches 0 by decrementing *)
    | Some m ->
        if m < 0 then invalid_arg "Engine.run: max_events must be >= 0";
        ref m
  in
  let continue = ref true in
  while !continue && not t.stopped do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some ev -> (
        match until with
        | Some limit when ev.time > limit ->
            t.now <- limit;
            continue := false
        | _ ->
            if !budget = 0 then continue := false
            else begin
              ignore (Heap.pop t.queue);
              if not !(ev.cancelled) then begin
                match t.arbiter with
                | Some arb when ev.lane >= 0 ->
                    fire_window t arb ~until budget ev
                | _ -> fire t budget ev
              end
            end)
  done;
  match until with
  | Some limit when not t.stopped && !budget <> 0 && t.now < limit ->
      t.now <- limit
  | _ -> ()
