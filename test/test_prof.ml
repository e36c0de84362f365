(* Perf observatory: the fl-bench JSON schema round-trip, the baseline
   comparison gate's edge cases, exact self-time accounting under an
   injected virtual clock, the pinned proof that enabling the profiler
   never perturbs the simulation, and the committed allocation pin for
   the codec hot path. *)

open Fl_prof

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let quick_config n =
  { (Fl_fireledger.Config.default ~n) with
    Fl_fireledger.Config.batch_size = 10;
    tx_size = 32 }

(* ---------- schema round-trip ---------- *)

let sample_file =
  { Bench.f_area = "codec";
    f_host = "host/Unix/64-bit";
    f_ocaml = "5.1.1";
    f_commit = "abc1234";
    f_mode = "smoke";
    f_kernels =
      [ { Bench.k_name = "codec/encode-body-100tx";
          k_area = "codec";
          k_ns_per_run = 109212.25;
          k_minor_words_per_run = 71.640845;
          k_major_words_per_run = 3538.4788;
          k_runs = 639 };
        { Bench.k_name = "codec/ob-key-concat";
          k_area = "codec";
          k_ns_per_run = 320.5;
          k_minor_words_per_run = 19.75;
          k_major_words_per_run = 0.0;
          k_runs = 185087 } ] }

let test_json_roundtrip () =
  match Bench.of_json (Bench.to_json sample_file) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok f ->
      Alcotest.(check string) "area" sample_file.Bench.f_area f.Bench.f_area;
      Alcotest.(check string) "host" sample_file.Bench.f_host f.Bench.f_host;
      Alcotest.(check string) "mode" sample_file.Bench.f_mode f.Bench.f_mode;
      Alcotest.(check string)
        "commit" sample_file.Bench.f_commit f.Bench.f_commit;
      Alcotest.(check int) "kernel count"
        (List.length sample_file.Bench.f_kernels)
        (List.length f.Bench.f_kernels);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" a.Bench.k_name b.Bench.k_name;
          Alcotest.(check (float 0.0))
            "ns/run" a.Bench.k_ns_per_run b.Bench.k_ns_per_run;
          Alcotest.(check (float 0.0))
            "minor w/run" a.Bench.k_minor_words_per_run
            b.Bench.k_minor_words_per_run;
          Alcotest.(check (float 0.0))
            "major w/run" a.Bench.k_major_words_per_run
            b.Bench.k_major_words_per_run;
          Alcotest.(check int) "runs" a.Bench.k_runs b.Bench.k_runs)
        sample_file.Bench.f_kernels f.Bench.f_kernels

let expect_decode_error label s =
  match Bench.of_json s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: decoding should have failed" label

let test_json_rejections () =
  expect_decode_error "not json" "][";
  expect_decode_error "not an object" "[1,2]";
  expect_decode_error "wrong schema" "{\"schema\": \"nope\", \"schema_version\": 1}";
  expect_decode_error "wrong version"
    "{\"schema\": \"fl-bench\", \"schema_version\": 99}";
  expect_decode_error "missing field"
    "{\"schema\": \"fl-bench\", \"schema_version\": 1}"

(* ---------- comparison gate edges ---------- *)

let mk_kernel ?(ns = 1000.0) name =
  { Bench.k_name = name;
    k_area = "t";
    k_ns_per_run = ns;
    k_minor_words_per_run = 0.0;
    k_major_words_per_run = 0.0;
    k_runs = 100 }

let mk_file kernels =
  { Bench.f_area = "t";
    f_host = "h";
    f_ocaml = "5.1.1";
    f_commit = "c";
    f_mode = "smoke";
    f_kernels = kernels }

let verdict_of report name =
  match
    List.find_opt
      (fun e -> String.equal e.Compare.e_name name)
      report.Compare.entries
  with
  | Some e -> e.Compare.e_verdict
  | None -> Alcotest.failf "no entry for %s" name

let test_compare_within () =
  let baseline = mk_file [ mk_kernel ~ns:1000.0 "a" ] in
  let current = mk_file [ mk_kernel ~ns:2500.0 "a" ] in
  let r = Compare.check ~baseline ~current () in
  Alcotest.(check bool) "passes" true (Compare.passed r);
  Alcotest.(check int) "no failures" 0 r.Compare.failures;
  match verdict_of r "a" with
  | Compare.Within ratio -> Alcotest.(check (float 1e-9)) "ratio" 2.5 ratio
  | _ -> Alcotest.fail "expected Within"

let test_compare_slower_fails () =
  let baseline = mk_file [ mk_kernel ~ns:1000.0 "a" ] in
  let current = mk_file [ mk_kernel ~ns:10_000.0 "a" ] in
  let r = Compare.check ~baseline ~current () in
  Alcotest.(check bool) "fails" false (Compare.passed r);
  Alcotest.(check int) "one failure" 1 r.Compare.failures;
  (match verdict_of r "a" with
  | Compare.Slower ratio -> Alcotest.(check (float 1e-9)) "ratio" 10.0 ratio
  | _ -> Alcotest.fail "expected Slower");
  (* The rendered report names the failure. *)
  Alcotest.(check bool) "render mentions SLOWER" true
    (contains (Compare.render r) "SLOWER")

let test_compare_removed_fails () =
  let baseline = mk_file [ mk_kernel "a"; mk_kernel "gone" ] in
  let current = mk_file [ mk_kernel "a" ] in
  let r = Compare.check ~baseline ~current () in
  Alcotest.(check bool) "fails" false (Compare.passed r);
  match verdict_of r "gone" with
  | Compare.Removed_kernel -> ()
  | _ -> Alcotest.fail "expected Removed_kernel"

let test_compare_new_passes () =
  let baseline = mk_file [ mk_kernel "a" ] in
  let current = mk_file [ mk_kernel "a"; mk_kernel "fresh" ] in
  let r = Compare.check ~baseline ~current () in
  Alcotest.(check bool) "passes" true (Compare.passed r);
  match verdict_of r "fresh" with
  | Compare.New_kernel -> ()
  | _ -> Alcotest.fail "expected New_kernel"

let test_compare_zero_ns_guard () =
  (* A near-zero baseline must not anchor a division: flagged
     incomparable, not an astronomically Slower failure. *)
  let baseline = mk_file [ mk_kernel ~ns:0.0 "a" ] in
  let current = mk_file [ mk_kernel ~ns:1000.0 "a" ] in
  let r = Compare.check ~baseline ~current () in
  Alcotest.(check bool) "passes" true (Compare.passed r);
  match verdict_of r "a" with
  | Compare.Incomparable -> ()
  | _ -> Alcotest.fail "expected Incomparable"

let test_compare_bad_tolerance () =
  let f = mk_file [ mk_kernel "a" ] in
  Alcotest.check_raises "tolerance <= 1"
    (Invalid_argument "Compare.check: tolerance") (fun () ->
      ignore (Compare.check ~tolerance:1.0 ~baseline:f ~current:f ()))

(* ---------- self-time accounting under a virtual clock ---------- *)

let test_prof_accounting_exact () =
  let now = ref 0L in
  Prof.set_clock_for_tests (Some (fun () -> !now));
  Prof.enable ();
  (* engine [0 .. 150] enclosing sha256 [100 .. 130] *)
  Prof.enter Prof.engine;
  now := 100L;
  Prof.enter Prof.sha256;
  now := 130L;
  Prof.leave ();
  now := 150L;
  Prof.leave ();
  Prof.disable ();
  Prof.set_clock_for_tests None;
  let self name =
    let st =
      List.find
        (fun s -> String.equal s.Prof.p_name name)
        (Prof.stats ())
    in
    (st.Prof.p_self_ns, st.Prof.p_calls)
  in
  Alcotest.(check (pair int int)) "engine self = elapsed - child" (120, 1)
    (self "engine");
  Alcotest.(check (pair int int)) "sha256 self" (30, 1) (self "sha256");
  Alcotest.(check int) "attributed = inclusive outermost" 150
    (Prof.attributed_ns ());
  Alcotest.check_raises "unbalanced leave"
    (Invalid_argument "Prof.leave: no open frame") (fun () -> Prof.leave ())

(* A frame closes on an exception too. A [read] that raises anything
   but the two codec exceptions is a codec bug and propagates out of
   [decode_frame]; its frame and the nested envelope open must both be
   credited and popped, so later frames are accounted normally. *)
let test_prof_frame_closes_on_exception () =
  let frame =
    Fl_wire.Envelope.seal ~tag:1 (fun w -> Fl_wire.Codec.Writer.varint w 7)
  in
  let now = ref 0L in
  Prof.set_clock_for_tests (Some (fun () -> !now));
  Prof.enable ();
  Alcotest.check_raises "read's exception propagates" (Failure "codec bug")
    (fun () ->
      ignore
        (Fl_wire.Msg_codec.decode_frame
           (fun _tag _body -> failwith "codec bug")
           frame));
  now := 100L;
  Prof.enter Prof.engine;
  now := 130L;
  Prof.leave ();
  let stat name =
    let st =
      List.find (fun s -> String.equal s.Prof.p_name name) (Prof.stats ())
    in
    (st.Prof.p_self_ns, st.Prof.p_calls)
  in
  let decode = stat "codec_decode" and engine = stat "engine" in
  let balanced =
    match Prof.leave () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Prof.disable ();
  Prof.set_clock_for_tests None;
  Alcotest.(check int) "decode frame and envelope open both closed" 2
    (snd decode);
  Alcotest.(check (pair int int)) "engine credited its own elapsed time"
    (30, 1) engine;
  Alcotest.(check bool) "no frame left open" true balanced

(* ---------- profiling-on runs are byte-identical ---------- *)

(* Same pinned run as test_obs.ml: seed 77, n=4, 300 simulated ms.
   Enabling the self-profiler must reproduce its sink count and
   fingerprint exactly — the profiler observes host time only and
   never touches the simulation. *)
let test_fingerprint_unchanged_with_prof () =
  let sink = Fl_obs.Obs.create () in
  Prof.enable ();
  let c =
    Fl_flo.Cluster.create ~seed:77 ~obs:sink ~config:(quick_config 4)
      ~workers:2 ()
  in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.ms 300) c;
  Prof.disable ();
  Alcotest.(check int) "flo count" 24500 (Fl_obs.Obs.count sink);
  Alcotest.(check string) "flo fp" "47a71f41df4910fe"
    (Fl_obs.Obs.fingerprint sink);
  (* And the profile itself saw the run: engine dispatch plus at least
     one nested subsystem accumulated time. *)
  Alcotest.(check bool) "attributed > 0" true (Prof.attributed_ns () > 0);
  let calls name =
    (List.find (fun s -> String.equal s.Prof.p_name name) (Prof.stats ()))
      .Prof.p_calls
  in
  Alcotest.(check bool) "engine frames counted" true (calls "engine" > 0);
  (* Every executed event was popped first; cancelled ones are popped
     and skipped. *)
  Alcotest.(check bool) "queue pops cover executed events" true
    (calls "queue" >= calls "engine")

let test_prof_coverage () =
  (* Loose live-clock check of the ≥90% design goal: well over half of
     the wall time inside the run must be attributed (the strict number
     is checked interactively via fl_trace prof; keep CI tolerant). *)
  Prof.enable ();
  let t0 = Clock.now_ns_int () in
  let c =
    Fl_flo.Cluster.create ~seed:3 ~config:(quick_config 4) ~workers:1 ()
  in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.ms 200) c;
  let wall = Clock.now_ns_int () - t0 in
  Prof.disable ();
  let attributed = Prof.attributed_ns () in
  Alcotest.(check bool) "wall > 0" true (wall > 0);
  Alcotest.(check bool)
    (Printf.sprintf "attributed %d of %d ns inside the run" attributed wall)
    true
    (float_of_int attributed >= 0.5 *. float_of_int wall)

(* ---------- measurement machinery ---------- *)

let test_measure_smoke () =
  let quota = { Bench.q_ms = 5.0; q_min_samples = 3; q_max_batch = 256 } in
  let acc = ref 0 in
  let k =
    Bench.measure ~quota ~name:"t/incr" ~area:"t" (fun () -> incr acc)
  in
  Alcotest.(check string) "name" "t/incr" k.Bench.k_name;
  Alcotest.(check bool) "ns/run > 0" true (k.Bench.k_ns_per_run > 0.0);
  Alcotest.(check bool) "ran" true (!acc > 0);
  Alcotest.(check bool) "runs counted" true (k.Bench.k_runs >= 3)

(* Committed allocation pin: decoding a 100-tx body frame. The decode
   path allocates the tx array and per-tx records in the minor heap —
   a regression that starts copying payloads (or boxing readers) shows
   up here long before it shows up as time. Measured ~516 minor w/run
   on the zero-copy reader (the tx array and per-tx records; the frame
   body itself is read in place), ~1 major w/run; the minor bound
   leaves ~15% headroom so any reintroduced per-frame copy (~1750
   words for this 14 KB frame) trips it immediately. *)
let decode_minor_words_bound = 600.0
let decode_major_words_bound = 64.0

let test_decode_alloc_pin () =
  let txs = Array.init 100 (fun i -> Fl_chain.Tx.create ~id:i ~size:128) in
  let block =
    Fl_chain.Block.create ~round:1 ~proposer:0
      ~prev_hash:Fl_chain.Block.genesis_hash txs
  in
  let msg =
    Fl_fireledger.Msg.Body
      { body_hash = block.Fl_chain.Block.header.Fl_chain.Header.body_hash;
        txs;
        ttl = 1 }
  in
  let bytes = Fl_fireledger.Msg.encode msg in
  let minor, major =
    Bench.alloc_per_run ~runs:64 (fun () ->
        ignore (Fl_fireledger.Msg.decode bytes))
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor %.1f w/run under %.0f" minor
       decode_minor_words_bound)
    true
    (minor > 0.0 && minor <= decode_minor_words_bound);
  Alcotest.(check bool)
    (Printf.sprintf "major %.1f w/run under %.0f" major
       decode_major_words_bound)
    true
    (major <= decode_major_words_bound)

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejections" `Quick test_json_rejections;
    Alcotest.test_case "compare: within tolerance" `Quick test_compare_within;
    Alcotest.test_case "compare: slower fails" `Quick test_compare_slower_fails;
    Alcotest.test_case "compare: removed fails" `Quick
      test_compare_removed_fails;
    Alcotest.test_case "compare: new passes" `Quick test_compare_new_passes;
    Alcotest.test_case "compare: zero-ns guard" `Quick
      test_compare_zero_ns_guard;
    Alcotest.test_case "compare: bad tolerance" `Quick
      test_compare_bad_tolerance;
    Alcotest.test_case "prof: exact accounting" `Quick
      test_prof_accounting_exact;
    Alcotest.test_case "prof: frame closes on exception" `Quick
      test_prof_frame_closes_on_exception;
    Alcotest.test_case "prof: fingerprint unchanged" `Quick
      test_fingerprint_unchanged_with_prof;
    Alcotest.test_case "prof: coverage" `Quick test_prof_coverage;
    Alcotest.test_case "bench: measure smoke" `Quick test_measure_smoke;
    Alcotest.test_case "codec decode allocation pin" `Quick
      test_decode_alloc_pin ]
