(* The traffic tier: Zipfian sampling, compound arrival processes,
   fee-priority mempool admission, the aggregate open-loop source's
   conservation + latency telescoping, the saturation knee, and the
   explorer's surge-window conservation oracle. *)

open Fl_sim
open Fl_load

(* ---------- Zipf sampler ---------- *)

(* Chi-square of 100k draws against the analytic pmf. 49 degrees of
   freedom: the 99.9th percentile of chi2_49 is ~85, so a correct
   sampler fails this about once per thousand seeds — and the seed is
   fixed, so the test is deterministic. *)
let test_zipf_chi_square () =
  let n = 50 and s = 1.2 in
  let z = Zipf.create ~n ~s in
  let rng = Rng.create 11 in
  let draws = 100_000 in
  let obs = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let k = Zipf.draw z rng in
    if k < 1 || k > n then Alcotest.failf "rank %d outside [1, %d]" k n;
    obs.(k) <- obs.(k) + 1
  done;
  let pmf_total = ref 0.0 in
  let chi2 = ref 0.0 in
  for k = 1 to n do
    let p = Zipf.pmf z k in
    pmf_total := !pmf_total +. p;
    let e = float_of_int draws *. p in
    let d = float_of_int obs.(k) -. e in
    chi2 := !chi2 +. (d *. d /. e)
  done;
  Alcotest.(check bool) "pmf sums to 1" true (abs_float (!pmf_total -. 1.0) < 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.1f below the 99.9%% critical value" !chi2)
    true (!chi2 < 85.0);
  Alcotest.(check bool) "rank 1 is hottest" true
    (obs.(1) > obs.(2) && obs.(2) > obs.(10))

let test_zipf_deterministic () =
  let seq seed =
    let z = Zipf.create ~n:1_000_000 ~s:1.01 in
    let rng = Rng.create seed in
    List.init 1_000 (fun _ -> Zipf.draw z rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (seq 7) (seq 7);
  Alcotest.(check bool) "different seed differs" true (seq 7 <> seq 8);
  Alcotest.(check bool) "million-rank draws stay in range" true
    (List.for_all (fun k -> k >= 1 && k <= 1_000_000) (seq 7))

(* ---------- arrival process ---------- *)

(* Rate accuracy over a simulated hour of per-tick Poisson counts:
   diurnal sinusoid plus a 3x surge window, total arrivals within 5
   standard deviations of the numeric integral of lambda. *)
let test_arrivals_rate_hour () =
  let surges =
    [ { Arrivals.from_ = Time.s 600; until = Time.s 900; factor = 3.0 } ]
  in
  let a =
    Arrivals.create ~amplitude:0.4 ~period:(Time.s 1200) ~surges
      ~rate_per_s:50.0 ()
  in
  let rng = Rng.create 3 in
  let tick = Time.ms 100 in
  let hour = Time.s 3600 in
  let total = ref 0 in
  let t = ref 0 in
  while !t < hour do
    total := !total + Arrivals.count_in a rng ~now:!t ~dt:tick;
    t := !t + tick
  done;
  let expected = Arrivals.expected_in a ~from_:0 ~until:hour in
  let sd = sqrt expected in
  Alcotest.(check bool)
    (Printf.sprintf "hour total %d within 5 sd of %.0f" !total expected)
    true
    (abs_float (float_of_int !total -. expected) < (5.0 *. sd) +. 50.0)

(* The exact per-event path (thinning against the peak rate) must
   agree with the same integral. *)
let test_arrivals_next_gap_rate () =
  let a =
    Arrivals.create ~amplitude:0.5 ~period:(Time.s 2) ~rate_per_s:2000.0 ()
  in
  let rng = Rng.create 9 in
  let until = Time.s 10 in
  let t = ref 0 and count = ref 0 in
  let continue = ref true in
  while !continue do
    let gap = Arrivals.next_gap a rng ~now:!t in
    Alcotest.(check bool) "gap positive" true (gap > 0);
    t := !t + gap;
    if !t < until then incr count else continue := false
  done;
  let expected = Arrivals.expected_in a ~from_:0 ~until in
  let sd = sqrt expected in
  Alcotest.(check bool)
    (Printf.sprintf "thinned total %d within 5 sd of %.0f" !count expected)
    true
    (abs_float (float_of_int !count -. expected) < (5.0 *. sd) +. 20.0)

(* ---------- fee-priority mempool ---------- *)

let test_mempool_priority_and_eviction () =
  let open Fl_chain in
  let pool = Mempool.create ~capacity:4 () in
  let evicted = ref [] in
  Mempool.set_on_evict pool
    (Some (fun tx ~fee -> evicted := (tx.Tx.id, fee) :: !evicted));
  let tx i = Tx.create ~id:i ~size:8 in
  Alcotest.(check bool) "admit 1" true (Mempool.admit pool (tx 1) ~fee:1);
  Alcotest.(check bool) "admit 2" true (Mempool.admit pool (tx 2) ~fee:5);
  Alcotest.(check bool) "admit 3" true (Mempool.admit pool (tx 3) ~fee:1);
  Alcotest.(check bool) "admit 4" true (Mempool.admit pool (tx 4) ~fee:3);
  Alcotest.(check (option int)) "min fee" (Some 1) (Mempool.min_fee pool);
  (* full: a zero-fee submission cannot displace anyone *)
  Alcotest.(check bool) "zero fee backpressured" false
    (Mempool.submit pool (tx 5));
  (* a better bid evicts the oldest lowest-fee resident, with signal *)
  Alcotest.(check bool) "outbid admitted" true (Mempool.admit pool (tx 6) ~fee:2);
  Alcotest.(check (list (pair int int))) "evictee signalled" [ (1, 1) ] !evicted;
  (* drain: highest fee first, FIFO within a level *)
  let order =
    Mempool.take_batch pool ~max:10
    |> Array.map (fun t -> t.Tx.id)
    |> Array.to_list
  in
  Alcotest.(check (list int)) "priority drain order" [ 2; 4; 6; 3 ] order;
  Alcotest.(check int) "drained empty" 0 (Mempool.size pool);
  (* a failed readmit is accounted as an eviction of the tx itself —
     an admitted transaction can never vanish without a signal *)
  for i = 10 to 13 do
    ignore (Mempool.admit pool (tx i) ~fee:5)
  done;
  evicted := [];
  Alcotest.(check bool) "readmit into full higher-fee pool fails" false
    (Mempool.readmit pool (tx 9) ~fee:0);
  Alcotest.(check (list (pair int int))) "failed readmit signalled as eviction"
    [ (9, 0) ] !evicted;
  Alcotest.(check bool) "evictions counted" true (Mempool.evicted_total pool >= 2)

(* ---------- aggregate source: conservation + exact telescoping ---------- *)

(* The source against a synthetic consensus: a drain empties the pool
   every 5 ms and finalizes the batch 3 ms later. Client-observed
   latency must telescope exactly (integer nanoseconds):
   sum(admission_wait) + sum(consensus) = sum(e2e), and the
   conservation ledger must balance with every pending id still in
   the pool. *)
let test_source_telescoping_and_conservation () =
  let open Fl_chain in
  let engine = Engine.create () in
  let recorder = Fl_metrics.Recorder.create engine in
  let pool = Mempool.create ~capacity:200 () in
  let arrivals = Arrivals.create ~rate_per_s:2000.0 () in
  let cfg =
    { (Source.default_config ~arrivals) with
      Source.max_retries = 2;
      retry_backoff = Time.ms 2 }
  in
  let sink tx ~fee = Mempool.admit pool tx ~fee in
  let src = Source.create engine ~rng:(Rng.create 21) ~recorder ~sink cfg in
  Mempool.set_on_evict pool
    (Some (fun tx ~fee -> Source.note_evicted src tx ~fee));
  let drain_once () =
    let batch = Mempool.take_batch_prio pool ~max:50 in
    if Array.length batch > 0 then begin
      let a = Engine.now engine in
      let txs = Array.map fst batch in
      ignore
        (Engine.schedule engine ~delay:(Time.ms 3) (fun () ->
             Source.note_block src txs ~a ~final:(Engine.now engine)))
    end
  in
  for i = 1 to 100 do
    ignore (Engine.schedule engine ~delay:(Time.ms (5 * i)) drain_once)
  done;
  ignore
    (Engine.schedule engine ~delay:(Time.ms 400) (fun () -> Source.stop src));
  Source.start src;
  Engine.run engine;
  let st = Source.stats src in
  Alcotest.(check bool) "generated load" true (st.Source.generated > 500);
  Alcotest.(check bool) "finalized most of it" true
    (st.Source.finalized > st.Source.generated / 2);
  (* conservation: every arrival is accounted for exactly once *)
  Alcotest.(check int) "conservation ledger balances" st.Source.generated
    (st.Source.finalized + st.Source.dropped + st.Source.evicted
    + st.Source.pending + st.Source.retrying);
  (* no silent drop: every pending id is still sitting in the pool *)
  let in_pool = Hashtbl.create 64 in
  Mempool.iter pool (fun tx ~fee:_ -> Hashtbl.replace in_pool tx.Tx.id ());
  List.iter
    (fun id ->
      if not (Hashtbl.mem in_pool id) then
        Alcotest.failf "pending id %d not in the pool" id)
    (Source.pending_ids src);
  (* exact telescoping over the recorder's histograms *)
  let sum name =
    match Fl_metrics.Recorder.histogram recorder name with
    | Some h -> Fl_metrics.Histogram.sum h
    | None -> Alcotest.failf "histogram %s missing" name
  in
  let count name =
    match Fl_metrics.Recorder.histogram recorder name with
    | Some h -> Fl_metrics.Histogram.count h
    | None -> 0
  in
  Alcotest.(check int) "admission + consensus = e2e (exact)"
    (sum "latency_client_e2e")
    (sum "phase_admission_wait" + sum "client_consensus");
  Alcotest.(check int) "one e2e sample per finalized tx" st.Source.finalized
    (count "latency_client_e2e")

(* ---------- saturation: the knee, test-asserted ---------- *)

(* Two points, one below and one far past the calibrated node-0 drain
   share (~25 ktps for n=4 w=2 beta=100): below the knee goodput
   tracks offered load and overload machinery stays idle; past it
   goodput plateaus, p99 diverges, and every lost transaction is an
   explicit drop or eviction. *)
let test_saturation_knee () =
  let open Fl_harness in
  let run rate =
    Experiments.run_traffic
      { Experiments.mode = Quick; jobs = 1; obs = None }
      ~rate_per_s:rate ~pool_cap:400
      ~read_ratio:0.0 ~consistency:Fl_load.Source.Session ~n:4 ~workers:2
      ~batch:100 ~tx_size:128 ()
  in
  let r_lo, st_lo, s = run 8_000.0 in
  let r_hi, st_hi, _ = run 60_000.0 in
  let secs = Time.to_float_s (s.Settings.warmup + s.Settings.duration) in
  let g_lo = float_of_int st_lo.Source.finalized /. secs in
  let g_hi = float_of_int st_hi.Source.finalized /. secs in
  Alcotest.(check bool)
    (Printf.sprintf "below knee goodput %.0f tracks offered 8000" g_lo)
    true
    (g_lo > 0.85 *. 8_000.0 && g_lo < 1.15 *. 8_000.0);
  Alcotest.(check bool) "below knee nothing dropped or evicted" true
    (st_lo.Source.dropped = 0 && st_lo.Source.evicted = 0);
  Alcotest.(check bool)
    (Printf.sprintf "past knee goodput %.0f plateaus below offered 60000" g_hi)
    true
    (g_hi < 0.6 *. 60_000.0);
  Alcotest.(check bool) "plateau above the below-knee point" true (g_hi > g_lo);
  Alcotest.(check bool) "overload is explicit" true
    (st_hi.Source.dropped + st_hi.Source.evicted > 0
    && st_hi.Source.backpressured > 0);
  let p99 r =
    Settings.histo_q_ms r.Settings.recorder "latency_client_e2e" 0.99
  in
  Alcotest.(check bool)
    (Printf.sprintf "p99 diverges past the knee (%.1f ms -> %.1f ms)"
       (p99 r_lo) (p99 r_hi))
    true
    (p99 r_hi > 3.0 *. p99 r_lo);
  (* telescoping holds on the real cluster path too *)
  let sum r name =
    match Fl_metrics.Recorder.histogram r.Settings.recorder name with
    | Some h -> Fl_metrics.Histogram.sum h
    | None -> Alcotest.failf "histogram %s missing" name
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "cluster-path telescoping (exact)"
        (sum r "latency_client_e2e")
        (sum r "phase_admission_wait" + sum r "client_consensus"))
    [ r_lo; r_hi ]

(* ---------- explorer surge plans ---------- *)

let test_explorer_surge_conservation () =
  let r = Fl_check.Explorer.run_seed ~with_surge_faults:true ~budget_ms:800 3 in
  Alcotest.(check bool) "surge plan present" true
    (Fl_check.Plan.has_surge_faults r.Fl_check.Explorer.plan);
  Alcotest.(check int) "no oracle violations" 0
    r.Fl_check.Explorer.total_violations;
  match r.Fl_check.Explorer.traffic with
  | None -> Alcotest.fail "surge run must report traffic stats"
  | Some st ->
      Alcotest.(check bool) "traffic flowed" true (st.Source.admitted > 0);
      Alcotest.(check int) "conservation ledger balances" st.Source.generated
        (st.Source.finalized + st.Source.dropped + st.Source.evicted
        + st.Source.pending + st.Source.retrying)

let suite =
  [ Alcotest.test_case "zipf chi-square" `Quick test_zipf_chi_square;
    Alcotest.test_case "zipf deterministic" `Quick test_zipf_deterministic;
    Alcotest.test_case "arrivals hour rate" `Quick test_arrivals_rate_hour;
    Alcotest.test_case "arrivals thinning rate" `Quick
      test_arrivals_next_gap_rate;
    Alcotest.test_case "mempool priority + eviction" `Quick
      test_mempool_priority_and_eviction;
    Alcotest.test_case "source telescoping + conservation" `Quick
      test_source_telescoping_and_conservation;
    Alcotest.test_case "saturation knee" `Slow test_saturation_knee;
    Alcotest.test_case "explorer surge conservation" `Quick
      test_explorer_surge_conservation ]
