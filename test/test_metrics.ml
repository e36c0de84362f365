open Fl_metrics

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record h i
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 100 (Histogram.max_value h);
  Alcotest.(check int) "p50" 50 (Histogram.quantile h 0.5);
  Alcotest.(check int) "p0" 1 (Histogram.quantile h 0.0);
  Alcotest.(check int) "p100" 100 (Histogram.quantile h 1.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Histogram.mean h)

let test_histogram_interleaved_reads () =
  (* Recording after a quantile query must keep results correct. *)
  let h = Histogram.create () in
  Histogram.record h 10;
  Histogram.record h 5;
  Alcotest.(check int) "first read" 10 (Histogram.quantile h 1.0);
  Histogram.record h 20;
  Alcotest.(check int) "after more data" 20 (Histogram.quantile h 1.0);
  Alcotest.(check int) "min intact" 5 (Histogram.min_value h)

let test_histogram_trimmed_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 10; 10; 10; 10; 10; 10; 10; 10; 1000 ];
  Alcotest.(check (float 0.001)) "outlier trimmed" 10.0
    (Histogram.trimmed_mean h ~drop_top:0.1);
  Alcotest.(check (float 0.001)) "untrimmed includes outlier" 109.0
    (Histogram.trimmed_mean h ~drop_top:0.0)

let test_histogram_cdf () =
  let h = Histogram.create () in
  for i = 1 to 10 do
    Histogram.record h (i * 100)
  done;
  let cdf = Histogram.cdf h ~points:5 in
  Alcotest.(check int) "5 points" 5 (List.length cdf);
  let values = List.map fst cdf in
  Alcotest.(check bool) "monotone" true
    (List.sort compare values = values);
  Alcotest.(check (float 0.001)) "last fraction is 1" 1.0
    (snd (List.nth cdf 4))

let prop_quantile_bounds =
  QCheck.Test.make ~name:"histogram: quantiles within min/max" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 50) small_nat) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let v = Histogram.quantile h q in
      v >= Histogram.min_value h && v <= Histogram.max_value h)

let test_recorder_counters () =
  let r = Recorder.create (Fl_sim.Engine.create ()) in
  Recorder.incr r "a";
  Recorder.incr r "a";
  Recorder.add r "b" 5;
  Alcotest.(check int) "incr" 2 (Recorder.counter r "a");
  Alcotest.(check int) "add" 5 (Recorder.counter r "b");
  Alcotest.(check int) "missing is 0" 0 (Recorder.counter r "zzz");
  Alcotest.(check (list (triple string int (option int)))) "dump sorted"
    [ ("a", 2, None); ("b", 5, None) ]
    (Recorder.counters r)

(* Each add fires as an engine event at a random time. Whole-run counts
   are the sum of every add, in-window counts the sum of the adds at
   [start <= t < stop], and the rate is that sum over the span — with
   no window, nothing is in it. Times and window share a short range,
   so adds often land exactly on either edge. *)
let prop_recorder_matches_model =
  QCheck.Test.make ~name:"recorder: counts match a reference model"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40)
           (triple (int_range 0 100) (oneofl [ "a"; "b"; "c" ])
              (int_range 0 9)))
        (option (pair (int_range 0 100) (int_range 1 100))))
    (fun (adds, window) ->
      let engine = Fl_sim.Engine.create () in
      let r = Recorder.create engine in
      Option.iter
        (fun (start, span) -> Recorder.set_window r ~start ~stop:(start + span))
        window;
      List.iter
        (fun (at, name, k) ->
          ignore
            (Fl_sim.Engine.schedule engine ~delay:at (fun () ->
                 if k = 1 then Recorder.incr r name else Recorder.add r name k)))
        adds;
      Fl_sim.Engine.run engine;
      let sum name inside =
        List.fold_left
          (fun acc (at, n, k) -> if n = name && inside at then acc + k else acc)
          0 adds
      in
      let in_window at =
        match window with
        | Some (start, span) -> start <= at && at < start + span
        | None -> false
      in
      let rate name =
        match window with
        | Some (_, span) ->
            float_of_int (sum name in_window) /. Fl_sim.Time.to_float_s span
        | None -> 0.0
      in
      let names = List.sort_uniq compare (List.map (fun (_, n, _) -> n) adds) in
      Recorder.counters r
      = List.map
          (fun n ->
            ( n,
              sum n (fun _ -> true),
              Option.map (fun _ -> sum n in_window) window ))
          names
      && List.for_all
           (fun n ->
             Recorder.counter r n = sum n (fun _ -> true)
             && Recorder.windowed_count r n = sum n in_window
             && Recorder.rate_per_s r n = rate n)
           ("never-added" :: names))

(* Nearest-rank edges: the old truncating formula reported p95 of
   1..10 as 9; the nearest-rank definition (r = ceil(q*len)) gives
   10. Also: empty -> 0, single sample answers every q, ties, and
   out-of-range q values clamp. *)
let test_histogram_quantile_edges () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty" 0 (Histogram.quantile h 0.5);
  Histogram.record h 42;
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "single sample q=%.2f" q)
        42 (Histogram.quantile h q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let h = Histogram.create () in
  for i = 1 to 10 do
    Histogram.record h i
  done;
  Alcotest.(check int) "p95 of 1..10 is 10 (nearest rank)" 10
    (Histogram.quantile h 0.95);
  Alcotest.(check int) "p90 of 1..10 is 9" 9 (Histogram.quantile h 0.90);
  Alcotest.(check int) "p10 of 1..10 is 1" 1 (Histogram.quantile h 0.10);
  Alcotest.(check int) "q clamped below" 1 (Histogram.quantile h (-0.5));
  Alcotest.(check int) "q clamped above" 10 (Histogram.quantile h 2.0);
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 5; 5; 5; 1 ];
  Alcotest.(check int) "ties p50" 5 (Histogram.quantile h 0.5);
  Alcotest.(check int) "ties p25" 1 (Histogram.quantile h 0.25)

let prop_quantile_matches_spec =
  QCheck.Test.make ~name:"histogram: quantile = nearest-rank spec"
    ~count:200
    QCheck.(
      pair (list_of_size Gen.(1 -- 50) (int_range (-1000) 1000)) (float_range 0.0 1.0))
    (fun (xs, q) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = List.sort compare xs in
      let len = List.length xs in
      let rank =
        max 1 (min len (int_of_float (Float.ceil (q *. float_of_int len))))
      in
      Histogram.quantile h q = List.nth sorted (rank - 1))

(* A recorder stamped by a fresh engine, with [set_window] applied
   when given, after each [(at, k)] add to "x" has fired as an engine
   event at time [at]. *)
let recorder_after ?window adds =
  let engine = Fl_sim.Engine.create () in
  let r = Recorder.create engine in
  Option.iter (fun (start, stop) -> Recorder.set_window r ~start ~stop) window;
  List.iter
    (fun (at, k) ->
      ignore
        (Fl_sim.Engine.schedule engine ~delay:at (fun () ->
             Recorder.add r "x" k)))
    adds;
  Fl_sim.Engine.run engine;
  r

let test_recorder_window () =
  let r =
    recorder_after ~window:(1000, 2000)
      [ (500, 10);  (* before window *)
        (1500, 10);  (* inside *)
        (1999, 5);  (* inside *)
        (2000, 10)  (* at stop: excluded *) ]
  in
  Alcotest.(check int) "windowed count" 15 (Recorder.windowed_count r "x");
  Alcotest.(check int) "whole run" 35 (Recorder.counter r "x");
  (* 15 events over a 1000 ns window -> 1.5e7/s *)
  Alcotest.(check (float 1.0)) "rate" 1.5e7 (Recorder.rate_per_s r "x")

let test_recorder_no_window_is_inert () =
  let r = recorder_after [ (100, 5) ] in
  Alcotest.(check int) "nothing in-window without a window" 0
    (Recorder.windowed_count r "x");
  Alcotest.(check int) "whole run still counts" 5 (Recorder.counter r "x");
  Alcotest.(check (float 0.001)) "rate 0" 0.0 (Recorder.rate_per_s r "x")

(* Window edges: start is inclusive, stop exclusive. *)
let test_recorder_window_edges () =
  let r =
    recorder_after ~window:(1000, 2000)
      [ (999, 8);  (* last instant before start *)
        (1000, 1);  (* exactly at start: counted *)
        (1999, 2);  (* last instant inside *)
        (2000, 4)  (* exactly at stop: excluded *) ]
  in
  Alcotest.(check int) "start inclusive, stop exclusive" 3
    (Recorder.windowed_count r "x");
  Alcotest.(check int) "whole run" 15 (Recorder.counter r "x");
  Alcotest.check_raises "empty window rejected"
    (Invalid_argument "Recorder.set_window: empty window") (fun () ->
      Recorder.set_window r ~start:5 ~stop:5)

let suite =
  [ Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram quantile edges" `Quick
      test_histogram_quantile_edges;
    QCheck_alcotest.to_alcotest prop_quantile_matches_spec;
    Alcotest.test_case "recorder window edges" `Quick
      test_recorder_window_edges;
    Alcotest.test_case "histogram interleaved" `Quick
      test_histogram_interleaved_reads;
    Alcotest.test_case "histogram trimmed mean" `Quick
      test_histogram_trimmed_mean;
    Alcotest.test_case "histogram cdf" `Quick test_histogram_cdf;
    QCheck_alcotest.to_alcotest prop_quantile_bounds;
    Alcotest.test_case "recorder counters" `Quick test_recorder_counters;
    Alcotest.test_case "recorder window" `Quick test_recorder_window;
    Alcotest.test_case "recorder inert" `Quick test_recorder_no_window_is_inert;
    QCheck_alcotest.to_alcotest prop_recorder_matches_model ]
