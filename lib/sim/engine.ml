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

(* Two queues hold the events, and together they pop in (time, seq)
   order. [seq] is unique, so (time, seq) is a total order and every
   heap shape pops the same sequence.

   - A binary min-heap on (time, seq) in [heap.(0 .. size-1)] holds
     every event with a positive delay and every lane-tagged one.
   - A FIFO ring holds the untagged events scheduled with delay 0:
     [flen] events from slot [fhead], wrapping modulo the ring's
     length, a power of two. Each is scheduled at [now] and takes the
     largest [seq] so far, and [now] never decreases, so the ring is
     sorted by (time, seq) as it fills.

   The run loop pops whichever head comes first. *)
type t = {
  mutable now : Time.t;
  mutable heap : event array;
  mutable size : int;
  mutable fifo : event array;
  mutable fhead : int;
  mutable flen : int;
  mutable next_seq : int;
  mutable stopped : bool;
  mutable processed : int;
  mutable probe : (now:Time.t -> processed:int -> pending:int -> unit) option;
  mutable arbiter : arbiter option;
  mutable arb_dropped : int;
}

(* Fills every slot past [size], and every ring slot outside the
   queued run, so neither array keeps a popped event — or whatever its
   closure captured — reachable. *)
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

let fifo_push t ev =
  let cap = Array.length t.fifo in
  if t.flen = cap then begin
    let grown = Array.make (max 16 (2 * cap)) vacant in
    for k = 0 to t.flen - 1 do
      grown.(k) <- t.fifo.((t.fhead + k) land (cap - 1))
    done;
    t.fifo <- grown;
    t.fhead <- 0
  end;
  t.fifo.((t.fhead + t.flen) land (Array.length t.fifo - 1)) <- ev;
  t.flen <- t.flen + 1

(* Remove and return the ring's oldest event; the caller checks
   [flen > 0]. *)
let fifo_pop t =
  let i = t.fhead in
  let ev = t.fifo.(i) in
  t.fifo.(i) <- vacant;
  t.fhead <- (i + 1) land (Array.length t.fifo - 1);
  t.flen <- t.flen - 1;
  ev

let create () =
  { now = 0;
    heap = [||];
    size = 0;
    fifo = [||];
    fhead = 0;
    flen = 0;
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
  if delay <= 0 && lane < 0 then fifo_push t ev else push t ev;
  t.next_seq <- t.next_seq + 1;
  ev

let cancel ev = ev.cancelled <- true
let stop t = t.stopped <- true
let pending t = t.size + t.flen
let processed t = t.processed

(* Self-profiling: with profiling enabled ([traced], read once per
   step) the "queue" subsystem is credited with the run loop's pops
   and the "engine" subsystem with all host time spent executing
   actions (minus whatever nested instrumented subsystems — codec,
   SHA-256, WAL, obs — claim for themselves), which is how the perf
   observatory attributes a run's wall time. A suspending fiber simply
   returns from its action, so the frame always balances. *)
let fire t budget ~traced ev =
  t.now <- ev.time;
  t.processed <- t.processed + 1;
  decr budget;
  if traced then Fl_prof.Prof.frame Fl_prof.Prof.engine ev.action
  else ev.action ();
  match t.probe with
  | None -> ()
  | Some p -> p ~now:t.now ~processed:t.processed ~pending:(pending t)

(* One branch point: [ev] is the earliest queued event and is tagged.
   Collect every other event inside the arbiter's horizon window (the
   frontier of concurrently-pending events), let the arbiter pick one
   tagged candidate to deliver — or drop — and put everything else
   back. The chosen event executes at the window-opening time [ev.time]
   (its own timestamp may be slightly later), so the clock never runs
   ahead of the candidates left in the queue. Untagged events inside
   the window are never offered: those in the heap re-enter it
   untouched, those in the FIFO stay there, and all run in canonical
   order. *)
let fire_window t arb ~until budget ~traced ev =
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
      fire t budget ~traced { (cands.(i)) with time = ev.time }
  | Drop i when i >= 0 && i < Array.length cands ->
      restore ~except:i;
      t.arb_dropped <- t.arb_dropped + 1
  | Deliver _ | Drop _ ->
      invalid_arg "Engine: arbiter pick out of range"

(* The ring's head comes next when it sorts before the heap's. *)
let fifo_first t =
  t.flen > 0 && (t.size = 0 || before t.fifo.(t.fhead) t.heap.(0))

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
    let from_fifo = fifo_first t in
    if t.size = 0 && not from_fifo then continue := false
    else
      let next = if from_fifo then t.fifo.(t.fhead) else t.heap.(0) in
      match until with
      | Some limit when next.time > limit ->
          if t.now < limit then t.now <- limit;
          continue := false
      | _ ->
          if !budget = 0 then continue := false
          else begin
            let traced = !Fl_prof.Prof.on in
            if traced then Fl_prof.Prof.enter Fl_prof.Prof.queue;
            let ev = if from_fifo then fifo_pop t else pop t in
            if traced then Fl_prof.Prof.leave ();
            if not ev.cancelled then begin
              match t.arbiter with
              | Some arb when ev.lane >= 0 ->
                  fire_window t arb ~until budget ~traced ev
              | _ -> fire t budget ~traced ev
            end
          end
  done;
  match until with
  | Some limit when not t.stopped && !budget <> 0 && t.now < limit ->
      t.now <- limit
  | _ -> ()
