type event = {
  time : Time.t;
  seq : int;
  lane : int;
      (* commutativity metadata: -1 = untagged (timers, fiber wakeups —
         always run in canonical time order); >= 0 names the lane the
         event acts on (one lane per delivery target), making it
         visible to an installed arbiter *)
  mutable cancelled : bool;
  action : unit -> unit;
}

type handle = event

type pick = Deliver of int | Drop of int

type arbiter = { horizon : Time.t; choose : lanes:int array -> pick }

(* The event queue is a binary min-heap on (time, seq) held in
   [heap.(0 .. size-1)]. [seq] is unique, so (time, seq) is a total
   order and every heap shape pops the same sequence. *)
type t = {
  mutable now : Time.t;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
  mutable stopped : bool;
  mutable processed : int;
  mutable probe : (now:Time.t -> processed:int -> pending:int -> unit) option;
  mutable arbiter : arbiter option;
  mutable arb_dropped : int;
}

(* Fills every slot past [size], so the array never keeps a popped
   event — or whatever its closure captured — reachable. *)
let vacant =
  { time = 0; seq = -1; lane = -1; cancelled = true; action = ignore }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let push t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 16 (2 * t.size)) vacant in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  let h = t.heap in
  (* Sift up: move parents down into the hole until [ev] fits. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before ev h.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- ev

(* Remove and return the earliest event; the caller checks [size > 0]. *)
let pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.size - 1 in
  let last = h.(n) in
  h.(n) <- vacant;
  t.size <- n;
  if n > 0 then begin
    (* Sift down: move the smaller child up into the hole until [last]
       fits. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
      if c < n && before h.(c) last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    done;
    h.(!i) <- last
  end;
  top

let create () =
  { now = 0;
    heap = [||];
    size = 0;
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
  let ev =
    { time = t.now + max 0 delay;
      seq = t.next_seq;
      lane;
      cancelled = false;
      action }
  in
  push t ev;
  t.next_seq <- t.next_seq + 1;
  ev

let cancel ev = ev.cancelled <- true
let stop t = t.stopped <- true
let pending t = t.size
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
  | Some p -> p ~now:t.now ~processed:t.processed ~pending:t.size

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
  while t.size > 0 && t.heap.(0).time <= window_end do
    let e = pop t in
    if e.cancelled then ()
    else if e.lane >= 0 then cands := e :: !cands
    else keep := e :: !keep
  done;
  (* Popped in (time, seq) order and collected newest-first. *)
  let cands = Array.of_list (List.rev !cands) in
  let lanes = Array.map (fun e -> e.lane) cands in
  let pick = arb.choose ~lanes in
  let restore ~except =
    List.iter (push t) !keep;
    Array.iteri (fun i e -> if i <> except then push t e) cands
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
    if t.size = 0 then continue := false
    else
      match until with
      | Some limit when t.heap.(0).time > limit ->
          t.now <- limit;
          continue := false
      | _ ->
          if !budget = 0 then continue := false
          else begin
            let ev = pop t in
            if not ev.cancelled then begin
              match t.arbiter with
              | Some arb when ev.lane >= 0 -> fire_window t arb ~until budget ev
              | _ -> fire t budget ev
            end
          end
  done;
  match until with
  | Some limit when not t.stopped && !budget <> 0 && t.now < limit ->
      t.now <- limit
  | _ -> ()
