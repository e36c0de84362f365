open Fl_sim

let test_engine_queue_orders () =
  let e = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i delay ->
      ignore (Engine.schedule e ~delay (fun () -> log := (delay, i) :: !log)))
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "sorted by time, ties in schedule order"
    [ (1, 1); (1, 3); (2, 6); (3, 4); (4, 2); (5, 0); (9, 5) ]
    (List.rev !log)

let prop_engine_order =
  QCheck.Test.make ~name:"engine: events run in (time, schedule) order"
    ~count:200
    QCheck.(list (pair (int_bound 20) bool))
    (fun evs ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i (delay, cancel) ->
          let h = Engine.schedule e ~delay (fun () -> log := i :: !log) in
          if cancel then Engine.cancel h)
        evs;
      Engine.run e;
      let expected =
        List.mapi (fun i (delay, cancel) -> (delay, i, cancel)) evs
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !log = expected)

(* Nested scheduling against a reference scheduler. Each node is one
   event: a root is scheduled from outside before run segment [seg],
   any other node when its parent runs. A running node logs itself
   with the clock, cancels node [kill] if that one is queued, then
   schedules its children in index order. Runs stop and resume at
   arbitrary [until]s (some below the clock), so events at one
   instant mix heap events scheduled earlier with zero-delay ones
   scheduled at that instant, some of them lane-tagged. *)
type node = { parent : int; seg : int; delay : int; lane : int; kill : int }

type 'h sched = {
  schedule : lane:int -> delay:int -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  now : unit -> int;
  run : int option -> unit;
}

let execute nodes untils s =
  let log = ref [] in
  let handles = Array.make (Array.length nodes) None in
  let rec sched k =
    let nd = nodes.(k) in
    handles.(k) <-
      Some
        (s.schedule ~lane:nd.lane ~delay:nd.delay (fun () ->
             log := (k, s.now ()) :: !log;
             if nd.kill >= 0 then Option.iter s.cancel handles.(nd.kill);
             Array.iteri (fun j c -> if c.parent = k then sched j) nodes))
  in
  let roots seg =
    Array.iteri
      (fun j nd -> if nd.parent < 0 && nd.seg = seg then sched j)
      nodes
  in
  roots 0;
  List.iteri
    (fun i until ->
      s.run (Some until);
      roots (i + 1))
    untils;
  s.run None;
  List.rev !log

(* The specification: repeatedly run the earliest live event by
   (time, seq), where [seq] counts schedule calls; a run bounded by
   [until] stops before the first event past it and leaves the clock
   at [until] unless the clock is already later. *)
type ref_event = {
  r_time : int;
  r_seq : int;
  mutable r_live : bool;
  r_action : unit -> unit;
}

let reference () =
  let now = ref 0 and seq = ref 0 and queue = ref [] in
  let rec run until =
    queue := List.filter (fun ev -> ev.r_live) !queue;
    let next =
      List.fold_left
        (fun best ev ->
          match best with
          | Some b when (b.r_time, b.r_seq) < (ev.r_time, ev.r_seq) -> best
          | _ -> Some ev)
        None !queue
    in
    match (next, until) with
    | Some ev, Some limit when ev.r_time > limit -> now := max !now limit
    | None, Some limit -> now := max !now limit
    | None, None -> ()
    | Some ev, _ ->
        ev.r_live <- false;
        now := ev.r_time;
        ev.r_action ();
        run until
  in
  { schedule =
      (fun ~lane:_ ~delay action ->
        let ev =
          { r_time = !now + max 0 delay;
            r_seq = !seq;
            r_live = true;
            r_action = action }
        in
        incr seq;
        queue := ev :: !queue;
        ev);
    cancel = (fun ev -> ev.r_live <- false);
    now = (fun () -> !now);
    run }

let engine ~arbiter =
  let e = Engine.create () in
  if arbiter then
    Engine.set_arbiter e (Some (fun ~lanes:_ -> Engine.Deliver 0));
  { schedule =
      (fun ~lane ~delay action -> Engine.schedule ~lane e ~delay action);
    cancel = Engine.cancel;
    now = (fun () -> Engine.now e);
    run = (fun until -> Engine.run ?until e) }

let gen_program =
  let open QCheck.Gen in
  let* untils = list_size (int_bound 3) (int_bound 12) in
  let* n = int_range 1 40 in
  let node k =
    let* parent =
      if k = 0 then return (-1)
      else frequency [ (1, return (-1)); (2, int_bound (k - 1)) ]
    in
    let* seg = int_bound (List.length untils) in
    let* delay = frequency [ (1, return 0); (1, int_range 1 4) ] in
    let* lane = frequency [ (3, return (-1)); (1, int_bound 2) ] in
    let* kill = frequency [ (3, return (-1)); (1, int_bound (n - 1)) ] in
    return { parent; seg; delay; lane; kill }
  in
  let* nodes = flatten_l (List.init n node) in
  return (Array.of_list nodes, untils)

let print_program (nodes, untils) =
  Printf.sprintf "untils [%s]; nodes %s"
    (String.concat ";" (List.map string_of_int untils))
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun k nd ->
               Printf.sprintf "%d:{p=%d s=%d d=%d l=%d k=%d}" k nd.parent nd.seg
                 nd.delay nd.lane nd.kill)
             nodes)))

let prop_engine_nested_order =
  QCheck.Test.make
    ~name:"engine: nested scheduling matches a (time, seq) reference"
    ~count:500
    (QCheck.make ~print:print_program gen_program)
    (fun (nodes, untils) ->
      let want = execute nodes untils (reference ()) in
      execute nodes untils (engine ~arbiter:false) = want
      && execute nodes untils (engine ~arbiter:true) = want)

(* The queue must not keep an executed event reachable: its closure
   may capture arbitrarily large state. A delay of 0 exercises the
   zero-delay FIFO, a positive one the heap. *)
let[@inline never] schedule_capturing e ~delay weak ran =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  ignore (Engine.schedule e ~delay (fun () -> ran := Bytes.length payload))

let test_engine_releases_fired () =
  List.iter
    (fun delay ->
      let e = Engine.create () in
      let weak = Weak.create 1 in
      let ran = ref 0 in
      schedule_capturing e ~delay weak ran;
      Engine.run e;
      Gc.full_major ();
      let what = Printf.sprintf " (delay %d)" delay in
      Alcotest.(check int) ("event ran" ^ what) 64 !ran;
      Alcotest.(check bool)
        ("captured value collected" ^ what)
        false (Weak.check weak 0);
      Alcotest.(check int)
        ("engine still live, queue empty" ^ what)
        0 (Engine.pending e))
    [ 10; 0 ]

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:30 (record "c"));
  ignore (Engine.schedule e ~delay:10 (record "a"));
  ignore (Engine.schedule e ~delay:10 (record "a2"));
  ignore (Engine.schedule e ~delay:20 (record "b"));
  Engine.run e;
  Alcotest.(check (list string))
    "time order, FIFO within an instant" [ "a"; "a2"; "b"; "c" ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event skipped" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:10 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:100 (fun () -> incr fired));
  Engine.run ~until:50 e;
  Alcotest.(check int) "only first event" 1 !fired;
  Alcotest.(check int) "clock clamped to until" 50 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "second event after resume" 2 !fired

(* An [until] below the clock runs nothing and leaves the clock where
   it is: lowering it would let a later event fire before one that
   already ran. *)
let test_engine_until_never_rewinds () =
  let e = Engine.create () in
  let log = ref [] in
  let record () = log := Engine.now e :: !log in
  ignore (Engine.schedule e ~delay:100 record);
  ignore (Engine.schedule e ~delay:300 record);
  Engine.run ~until:200 e;
  Alcotest.(check int) "clock at first until" 200 (Engine.now e);
  Engine.run ~until:50 e;
  Alcotest.(check int) "earlier until keeps the clock" 200 (Engine.now e);
  ignore (Engine.schedule e ~delay:10 record);
  Engine.run e;
  Alcotest.(check (list int)) "fire times never decrease" [ 100; 210; 300 ]
    (List.rev !log)

let test_fiber_sleep () =
  let e = Engine.create () in
  let log = ref [] in
  Fiber.spawn e (fun () ->
      Fiber.sleep e 20;
      log := ("x", Engine.now e) :: !log);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 10;
      log := ("y", Engine.now e) :: !log;
      Fiber.sleep e 25;
      log := ("z", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "interleaving respects virtual time"
    [ ("y", 10); ("x", 20); ("z", 35) ]
    (List.rev !log)

let test_mailbox_basic () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got = ref [] in
  Fiber.spawn e (fun () ->
      (* Bind before consing: the cons tail is evaluated before the
         blocking call, so [recv x :: !got] would capture a stale
         list. *)
      let a = Mailbox.recv mb in
      got := a :: !got;
      let b = Mailbox.recv mb in
      got := b :: !got);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 5;
      Mailbox.send mb 1;
      Mailbox.send mb 2);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !got)

let test_mailbox_timeout () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let first = ref (Some 99) and second = ref None in
  Fiber.spawn e (fun () ->
      first := Mailbox.recv_timeout mb ~timeout:10;
      second := Mailbox.recv_timeout mb ~timeout:100);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 50;
      Mailbox.send mb 7);
  Engine.run e;
  Alcotest.(check (option int)) "expired" None !first;
  Alcotest.(check (option int)) "delivered" (Some 7) !second

let test_mailbox_timeout_race () =
  (* A message arriving exactly when the timer would fire must not be
     both delivered and timed out. *)
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let r = ref None in
  Fiber.spawn e (fun () -> r := Mailbox.recv_timeout mb ~timeout:10);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 10;
      Mailbox.send mb 1);
  Engine.run e;
  (match !r with
  | None -> Alcotest.(check int) "message still queued" 1 (Mailbox.length mb)
  | Some v ->
      Alcotest.(check int) "delivered once" 1 v;
      Alcotest.(check int) "queue empty" 0 (Mailbox.length mb));
  Alcotest.(check pass) "no crash" () ()

let test_ivar () =
  let e = Engine.create () in
  let iv = Ivar.create e in
  let seen = ref [] in
  for i = 0 to 2 do
    Fiber.spawn e (fun () ->
        let v = Ivar.read iv in
        seen := (i, v) :: !seen)
  done;
  Fiber.spawn e (fun () ->
      Fiber.sleep e 10;
      Ivar.fill iv 42);
  Engine.run e;
  Alcotest.(check int) "all readers woke" 3 (List.length !seen);
  List.iter (fun (_, v) -> Alcotest.(check int) "value" 42 v) !seen;
  Alcotest.(check bool) "double fill rejected" false (Ivar.try_fill iv 1)

let test_ivar_read_timeout () =
  let e = Engine.create () in
  let iv = Ivar.create e in
  let a = ref (Some 0) and b = ref None in
  Fiber.spawn e (fun () ->
      a := Ivar.read_timeout iv ~timeout:5;
      b := Ivar.read_timeout iv ~timeout:100);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 20;
      Ivar.fill iv 9);
  Engine.run e;
  Alcotest.(check (option int)) "timed out" None !a;
  Alcotest.(check (option int)) "read" (Some 9) !b

let test_race_abort () =
  let e = Engine.create () in
  let iv = Ivar.create e in
  let abort = Ivar.create e in
  let result = ref `Pending in
  Fiber.spawn e (fun () ->
      match Race.read iv ~abort:(Some abort) with
      | v -> result := `Got v
      | exception Race.Aborted -> result := `Aborted);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 5;
      Ivar.fill abort ());
  Fiber.spawn e (fun () ->
      Fiber.sleep e 10;
      Ivar.fill iv 3);
  Engine.run e;
  Alcotest.(check bool) "aborted wins" true (!result = `Aborted)

let test_race_value_wins () =
  let e = Engine.create () in
  let iv = Ivar.create e in
  let abort = Ivar.create e in
  let result = ref `Pending in
  Fiber.spawn e (fun () ->
      match Race.read iv ~abort:(Some abort) with
      | v -> result := `Got v
      | exception Race.Aborted -> result := `Aborted);
  Fiber.spawn e (fun () ->
      Fiber.sleep e 5;
      Ivar.fill iv 3);
  Engine.run e;
  Alcotest.(check bool) "value wins" true (!result = `Got 3)

let test_cpu_contention () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  let finish = Array.make 4 0 in
  for i = 0 to 3 do
    Fiber.spawn e (fun () ->
        Cpu.charge cpu 100;
        finish.(i) <- Engine.now e)
  done;
  Engine.run e;
  Array.sort compare finish;
  (* 4 jobs of 100 ns on 2 cores: two end at ~100, two at ~200. *)
  Alcotest.(check bool) "first pair parallel" true (finish.(1) <= 110);
  Alcotest.(check bool) "second pair queued" true (finish.(2) >= 200);
  Alcotest.(check int) "busy time" 400 (Cpu.busy_time cpu)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create 8 in
  let zs = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_named_split () =
  let a = Rng.create 7 in
  let s1 = Rng.named_split a "x" in
  let v1 = Rng.int64 s1 in
  (* named_split must not consume from the parent. *)
  let s2 = Rng.named_split a "x" in
  Alcotest.(check bool) "stable per label" true (Int64.equal v1 (Rng.int64 s2));
  let s3 = Rng.named_split a "y" in
  Alcotest.(check bool) "labels independent" true
    (not (Int64.equal v1 (Rng.int64 s3)))

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng: int within bound" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let test_rng_extreme_bounds () =
  (* bound = max_int exercises the rejection-sampling path where the
     naive [mod] bias would be material. *)
  let r = Rng.create 21 in
  for _ = 1 to 200 do
    let v = Rng.int r max_int in
    Alcotest.(check bool) "0 <= v < max_int" true (v >= 0 && v < max_int)
  done;
  (* power-of-two bounds take the mask path *)
  for _ = 1 to 200 do
    let v = Rng.int r 4096 in
    Alcotest.(check bool) "masked draw in range" true (v >= 0 && v < 4096)
  done;
  Alcotest.(check int) "bound 1 is constant" 0 (Rng.int r 1);
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0));
  Alcotest.check_raises "negative bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r (-5)))

let prop_split_independent =
  QCheck.Test.make ~name:"rng: split streams are independent" ~count:100
    QCheck.small_nat
    (fun seed ->
      let parent = Rng.create seed in
      let a = Rng.split parent in
      let b = Rng.split parent in
      let xs = List.init 16 (fun _ -> Rng.int64 a) in
      let ys = List.init 16 (fun _ -> Rng.int64 b) in
      (* distinct streams, and consuming [a] must not perturb [b] *)
      xs <> ys)

let prop_named_split_pure =
  QCheck.Test.make
    ~name:"rng: named_split does not consume parent state" ~count:100
    QCheck.(pair small_nat small_printable_string)
    (fun (seed, label) ->
      let mk () =
        let parent = Rng.create seed in
        (parent, List.init 8 (fun _ -> Rng.int64 parent))
      in
      let p1, raw1 = mk () in
      let p2, raw2 = mk () in
      (* Both parents sit at the same state. p2 takes a named split
         and drains it; p1 takes the same split afterwards. If
         [named_split] consumed parent state, the split streams or the
         parents' subsequent raw streams would diverge. *)
      let s2 = Rng.named_split p2 label in
      let split2 = List.init 8 (fun _ -> Rng.int64 s2) in
      let s1 = Rng.named_split p1 label in
      let split1 = List.init 8 (fun _ -> Rng.int64 s1) in
      let tail1 = List.init 8 (fun _ -> Rng.int64 p1) in
      let tail2 = List.init 8 (fun _ -> Rng.int64 p2) in
      raw1 = raw2 && split1 = split2 && tail1 = tail2)

let test_rng_distributions () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean ~5" true (mean > 4.5 && mean < 5.5);
  let below = ref 0 in
  for _ = 1 to n do
    if Rng.lognormal r ~mu:(log 100.0) ~sigma:0.5 < 100.0 then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  Alcotest.(check bool) "lognormal median ~100" true (frac > 0.47 && frac < 0.53)

let test_time_pp () =
  let s v = Format.asprintf "%a" Time.pp v in
  Alcotest.(check string) "ns" "17ns" (s 17);
  Alcotest.(check string) "us" "2.500us" (s 2500);
  Alcotest.(check string) "s" "1.500s" (s (Time.ms 1500))

(* ---------- Par: the domain-parallel sweep map ---------- *)

let test_par_matches_sequential () =
  let f i = (i * i) + 1 in
  let seq = Fl_sim.Par.map ~jobs:1 40 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d merges in index order" jobs)
        seq
        (Fl_sim.Par.map ~jobs 40 f))
    [ 2; 3; 8; 64 ]

let test_par_edge_sizes () =
  Alcotest.(check (array int)) "n=0" [||] (Fl_sim.Par.map ~jobs:4 0 Fun.id);
  Alcotest.(check (array int)) "n=1" [| 0 |] (Fl_sim.Par.map ~jobs:4 1 Fun.id);
  (* more jobs than items: extra domains just find no work *)
  Alcotest.(check (array int))
    "jobs > n" [| 0; 1; 2 |]
    (Fl_sim.Par.map ~jobs:16 3 Fun.id);
  Alcotest.check_raises "negative n" (Invalid_argument "Par.map: negative length")
    (fun () -> ignore (Fl_sim.Par.map ~jobs:2 (-1) Fun.id))

exception Boom of int

let test_par_propagates_exception () =
  List.iter
    (fun jobs ->
      match Fl_sim.Par.map ~jobs 20 (fun i -> if i = 13 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Boom 13 -> ())
    [ 1; 4 ]

let test_par_sequential_while_profiling () =
  (* The profiler's accumulation state is global, so an active profile
     must force the sequential path (observable: worker domains would
     each see [Prof.on] false-shared state — here we just require the
     map still to be correct and the profiler to stay consistent). *)
  Fl_prof.Prof.enable ();
  let r = Fl_sim.Par.map ~jobs:4 8 (fun i -> i * 2) in
  Fl_prof.Prof.disable ();
  Alcotest.(check (array int)) "profiled map correct"
    (Array.init 8 (fun i -> i * 2))
    r

let test_par_resolve_jobs () =
  Alcotest.(check int) "cli wins" 3 (Fl_sim.Par.resolve_jobs ~cli:3 ());
  match Sys.getenv_opt "FL_JOBS" with
  | Some _ -> () (* the environment already chose; nothing to pin *)
  | None ->
      Alcotest.(check int) "default 1" 1 (Fl_sim.Par.resolve_jobs ())

let suite =
  [ Alcotest.test_case "engine queue orders" `Quick test_engine_queue_orders;
    QCheck_alcotest.to_alcotest prop_engine_order;
    QCheck_alcotest.to_alcotest prop_engine_nested_order;
    Alcotest.test_case "engine releases fired events" `Quick
      test_engine_releases_fired;
    Alcotest.test_case "engine order" `Quick test_engine_order;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine until never rewinds" `Quick
      test_engine_until_never_rewinds;
    Alcotest.test_case "fiber sleep" `Quick test_fiber_sleep;
    Alcotest.test_case "mailbox fifo" `Quick test_mailbox_basic;
    Alcotest.test_case "mailbox timeout" `Quick test_mailbox_timeout;
    Alcotest.test_case "mailbox timeout race" `Quick test_mailbox_timeout_race;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "ivar read_timeout" `Quick test_ivar_read_timeout;
    Alcotest.test_case "race abort" `Quick test_race_abort;
    Alcotest.test_case "race value" `Quick test_race_value_wins;
    Alcotest.test_case "cpu contention" `Quick test_cpu_contention;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng named split" `Quick test_rng_named_split;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
    Alcotest.test_case "rng extreme bounds" `Quick test_rng_extreme_bounds;
    QCheck_alcotest.to_alcotest prop_split_independent;
    QCheck_alcotest.to_alcotest prop_named_split_pure;
    Alcotest.test_case "rng distributions" `Quick test_rng_distributions;
    Alcotest.test_case "time pp" `Quick test_time_pp;
    Alcotest.test_case "par map = sequential map" `Quick
      test_par_matches_sequential;
    Alcotest.test_case "par edge sizes" `Quick test_par_edge_sizes;
    Alcotest.test_case "par propagates exceptions" `Quick
      test_par_propagates_exception;
    Alcotest.test_case "par sequential while profiling" `Quick
      test_par_sequential_while_profiling;
    Alcotest.test_case "par resolve_jobs" `Quick test_par_resolve_jobs ]
