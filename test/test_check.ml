(* The checking subsystem checked: explorer determinism, planted-bug
   detection with shrinking, the recovery path under equivocation,
   oracle false-positive resistance over fault-free seeds, and the FLO
   merge-order oracle. *)

open Fl_sim
open Fl_fireledger
open Fl_check

(* 25-seed explorer smoke: two explorations of the same seed range
   must produce identical fingerprints and no violations. *)
let test_explorer_smoke () =
  let go () = Explorer.explore ~seeds:25 ~base_seed:1 ~budget_ms:600 () in
  let a = go () in
  let b = go () in
  Alcotest.(check string)
    "deterministic fingerprint" (Explorer.fingerprint a)
    (Explorer.fingerprint b);
  Alcotest.(check int) "no failing seeds" 0 (List.length a.Explorer.failures);
  Alcotest.(check bool) "work happened" true (a.Explorer.total_events > 10_000)

(* The sweep-sharding acceptance check: exploring the same seed range
   on 1 domain and on 4 must be indistinguishable — same fingerprint,
   same per-seed reports in the same order, same totals. Parallelism
   may only change wall-clock time. *)
let test_explorer_jobs_determinism () =
  let go jobs =
    Explorer.explore ~jobs ~seeds:6 ~base_seed:3 ~budget_ms:400 ()
  in
  let seq = go 1 in
  let par = go 4 in
  Alcotest.(check string)
    "fingerprint identical across domain counts"
    (Explorer.fingerprint seq) (Explorer.fingerprint par);
  Alcotest.(check int) "same total events" seq.Explorer.total_events
    par.Explorer.total_events;
  Alcotest.(check (list int))
    "reports in seed order either way"
    (List.map (fun r -> r.Explorer.plan.Plan.seed) seq.Explorer.reports)
    (List.map (fun r -> r.Explorer.plan.Plan.seed) par.Explorer.reports)

(* A deliberately planted safety bug — one node's definite stream
   forked from round 3 on — must be caught, shrunk to a plan that
   still fails, and reported as a replayable invocation. *)
let test_injected_fork () =
  let budget_ms = 800 in
  let r = Explorer.run_seed ~inject_fork:true ~budget_ms 1000 in
  Alcotest.(check bool) "fork caught" true (Explorer.failed r);
  let is_safety (v : Oracle.violation) =
    v.Oracle.oracle = "agreement" || v.Oracle.oracle = "chain"
  in
  Alcotest.(check bool)
    "flagged as agreement/chain violation" true
    (List.exists is_safety r.Explorer.violations);
  (* --inject-fork also forces a real equivocator into the plan; the
     rescinding fork must surface signed evidence naming the injected
     Byzantine set and nobody else *)
  let byz = Plan.byzantine r.Explorer.plan in
  Alcotest.(check bool)
    "evidence names the injected equivocator set" true
    (r.Explorer.accused <> []
    && List.for_all (fun a -> List.mem a byz) r.Explorer.accused);
  Alcotest.(check bool) "evidence collected" true (r.Explorer.evidence_count > 0);
  let shrunk = Explorer.shrink ~inject_fork:true ~budget_ms r.Explorer.plan in
  Alcotest.(check bool)
    "shrunk plan still fails" true
    (Explorer.failed (Explorer.run_plan ~inject_fork:true ~budget_ms shrunk));
  Alcotest.(check bool)
    "shrinking never grows the plan" true
    (List.length shrunk.Plan.faults <= List.length r.Explorer.plan.Plan.faults
    && shrunk.Plan.n <= r.Explorer.plan.Plan.n);
  (match Plan.of_string (Plan.to_string shrunk) with
  | Ok p -> Alcotest.(check bool) "shrunk plan round-trips" true (p = shrunk)
  | Error e -> Alcotest.failf "shrunk plan does not parse back: %s" e);
  let cli = Explorer.cli_of_plan ~budget_ms shrunk in
  Alcotest.(check bool)
    "reproducer is a --plan invocation" true
    (String.length cli > 0
    && String.sub cli 0 10 = "fl_explore"
    &&
    match String.index_opt cli '\'' with
    | Some _ -> true
    | None -> false)

(* Recovery path under an equivocating proposer: recoveries fire on
   correct nodes, each rescinds at most f+1 blocks, the era counter
   advances exactly once per recovery, the definite prefix survives
   and all oracles stay quiet. *)
let recovery_path n () =
  let f = (n - 1) / 3 in
  let byz = 1 in
  let config =
    { (Config.default ~n) with
      Config.f;
      batch_size = 10;
      tx_size = 32;
      initial_timeout = Time.ms 20 }
  in
  let clock = ref (fun () -> 0) in
  let oracle = Oracle.create ~now:(fun () -> !clock ()) ~n ~f () in
  let recoveries = Array.make n 0 in
  let max_rescinded = ref 0 in
  let output i =
    Instance.tee_output (Oracle.output_for oracle i)
      { Instance.null_output with
        Instance.on_recovery =
          (fun ~round:_ ~rescinded ->
            recoveries.(i) <- recoveries.(i) + 1;
            max_rescinded := max !max_rescinded rescinded) }
  in
  let c =
    Cluster.create ~seed:7
      ~behavior:(fun i ->
        if i = byz then Instance.Equivocator else Instance.Honest)
      ~output ~config ()
  in
  clock := (fun () -> Engine.now c.Cluster.engine);
  Oracle.attach_stores oracle (Array.map Instance.store c.Cluster.instances);
  Cluster.start c;
  Cluster.run ~until:(Time.s 1) c;
  Alcotest.(check bool)
    "correct nodes recovered" true
    (Array.exists (fun k -> k > 0) recoveries);
  Alcotest.(check bool)
    "rescission depth within f+1" true
    (!max_rescinded >= 1 && !max_rescinded <= f + 1);
  Array.iteri
    (fun i inst ->
      if i <> byz then
        Alcotest.(check int)
          (Printf.sprintf "era = recoveries at node %d" i)
          recoveries.(i) (Instance.era inst))
    c.Cluster.instances;
  Oracle.finish oracle ~cluster:c ~faulty:[ byz ] ~expect_progress:true
    ~min_rounds:2;
  List.iter
    (fun v -> Alcotest.failf "oracle violation: %a" Oracle.pp_violation v)
    (Oracle.violations oracle);
  Alcotest.(check bool)
    "definite prefix agreement" true
    (Cluster.definite_prefix_agreement c)

(* False-positive resistance: 50 fault-free seeds through every
   oracle must produce zero violations. *)
let test_fault_free_quiet () =
  for seed = 1 to 50 do
    let n = if seed mod 2 = 0 then 7 else 4 in
    let plan = { Plan.n; f = (n - 1) / 3; seed; faults = [] } in
    let r = Explorer.run_plan ~budget_ms:400 plan in
    if Explorer.failed r then
      Alcotest.failf "seed %d (n=%d): %d violation(s), first: %a" seed n
        r.Explorer.total_violations Oracle.pp_violation
        (List.hd r.Explorer.violations)
  done

(* FLO merge-order oracle: a healthy ω=3 deployment is quiet; the
   same deployment with one node's delivery stream tampered (worker
   ids rotated) is flagged. *)
let flo_merge ~tamper () =
  let n = 4 and workers = 3 in
  let config =
    { (Config.default ~n) with
      Config.batch_size = 10;
      tx_size = 32;
      initial_timeout = Time.ms 20 }
  in
  let fm = Oracle.Flo_merge.create ~n ~workers in
  let deliveries = ref 0 in
  let c =
    Fl_flo.Cluster.create ~seed:3 ~config ~workers
      ~on_deliver:(fun ~node d ->
        incr deliveries;
        let d =
          if tamper && node = 0 then
            { d with Fl_flo.Node.worker = (d.Fl_flo.Node.worker + 1) mod workers }
          else d
        in
        Oracle.Flo_merge.on_deliver fm ~node d)
      ()
  in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Time.ms 400) c;
  Alcotest.(check bool) "blocks delivered" true (!deliveries > workers * n);
  if tamper then
    Alcotest.(check bool)
      "tampered stream flagged" true
      (List.exists
         (fun (v : Oracle.violation) -> v.Oracle.oracle = "flo-merge")
         (Oracle.Flo_merge.violations fm))
  else
    List.iter
      (fun v -> Alcotest.failf "oracle violation: %a" Oracle.pp_violation v)
      (Oracle.Flo_merge.violations fm)

(* Direct accountability drill: a single explicit equivocator, no
   other faults, no planted bug. The fork rescinds, and the collected
   wire-true evidence must name exactly node 1 — with every oracle
   quiet (in particular no false accusation). *)
let test_accountability () =
  let plan =
    { Plan.n = 4; f = 1; seed = 7; faults = [ Plan.Equivocate { node = 1 } ] }
  in
  let r = Explorer.run_plan ~budget_ms:1500 plan in
  Alcotest.(check (list int)) "accused exactly [1]" [ 1 ] r.Explorer.accused;
  Alcotest.(check bool) "evidence collected" true
    (r.Explorer.evidence_count > 0);
  Alcotest.(check int) "oracles quiet" 0 r.Explorer.total_violations

(* A printed plan must parse back to the very plan that ran, or a
   reproducer replays something else: 200 seeds of each generator
   shape (plain; disk + corrupt + surge; reconfiguration). *)
let test_plan_roundtrip () =
  List.iter
    (fun (extra, reconfig) ->
      for seed = 0 to 199 do
        let p =
          Plan.generate ~with_disk_faults:extra ~with_corrupt_faults:extra
            ~with_surge_faults:extra ~with_reconfig_faults:reconfig ~seed
            ~budget_ms:2000 ()
        in
        let text = Plan.to_string p in
        match Plan.of_string text with
        | Ok q when q = p -> ()
        | Ok q ->
            Alcotest.failf "%s reads back as %s" text (Plan.to_string q)
        | Error e -> Alcotest.failf "%s does not parse back: %s" text e
      done)
    [ (false, false); (true, false); (false, true) ]

let suite =
  [ Alcotest.test_case "explorer smoke (25 seeds, deterministic)" `Slow
      test_explorer_smoke;
    Alcotest.test_case "explore --jobs 4 = --jobs 1 (fingerprint)" `Quick
      test_explorer_jobs_determinism;
    Alcotest.test_case "injected fork caught, shrunk, replayable" `Slow
      test_injected_fork;
    Alcotest.test_case "generated plans round-trip through text" `Quick
      test_plan_roundtrip;
    Alcotest.test_case "equivocation yields exact evidence" `Quick
      test_accountability;
    Alcotest.test_case "recovery path, n=4" `Quick (recovery_path 4);
    Alcotest.test_case "recovery path, n=7" `Slow (recovery_path 7);
    Alcotest.test_case "fault-free seeds: oracles quiet" `Slow
      test_fault_free_quiet;
    Alcotest.test_case "flo merge oracle quiet on healthy run" `Quick
      (flo_merge ~tamper:false);
    Alcotest.test_case "flo merge oracle flags tampered stream" `Quick
      (flo_merge ~tamper:true) ]
