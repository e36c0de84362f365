open Fl_sim
open Fl_baselines

let test_hotstuff_progress () =
  let hs = Hotstuff.create ~n:4 ~f:1 ~batch_size:50 ~tx_size:64 () in
  Hotstuff.start hs;
  Hotstuff.run ~until:(Time.s 2) hs;
  let blocks = Hotstuff.committed_blocks hs in
  Alcotest.(check bool)
    (Printf.sprintf "commits blocks (%d)" blocks)
    true (blocks > 20);
  Alcotest.(check bool) "chains agree" true (Hotstuff.chains_agree hs);
  Alcotest.(check int) "no timeouts in fault-free run" 0
    (Fl_metrics.Recorder.counter hs.Hotstuff.recorder "hs_timeouts")

let test_hotstuff_three_round_finality () =
  (* HotStuff commits lag three views behind proposals. *)
  let hs = Hotstuff.create ~n:4 ~f:1 ~batch_size:10 ~tx_size:64 () in
  Hotstuff.start hs;
  Hotstuff.run ~until:(Time.s 1) hs;
  let proposals =
    Fl_metrics.Recorder.counter hs.Hotstuff.recorder "hs_proposals"
  in
  let commits = Hotstuff.committed_blocks hs in
  Alcotest.(check bool)
    (Printf.sprintf "commit lag ~3 views (%d proposed, %d committed)"
       proposals commits)
    true
    (proposals - commits >= 2 && proposals - commits <= 6)

let test_hotstuff_signature_count () =
  (* Every committed block costs ~n signatures (each replica votes),
     vs FireLedger's single proposer signature. *)
  let n = 4 in
  let hs = Hotstuff.create ~n ~f:1 ~batch_size:50 ~tx_size:64 () in
  Hotstuff.start hs;
  Hotstuff.run ~until:(Time.s 2) hs;
  let sigs = Fl_metrics.Recorder.counter hs.Hotstuff.recorder "signatures" in
  let proposals =
    Fl_metrics.Recorder.counter hs.Hotstuff.recorder "hs_proposals"
  in
  let per_block = float_of_int sigs /. float_of_int (max 1 proposals) in
  Alcotest.(check bool)
    (Printf.sprintf "~n+1 signatures per proposal (%.1f)" per_block)
    true
    (per_block > float_of_int (n - 1) && per_block < float_of_int (n + 2))

let test_hotstuff_leader_crash () =
  (* Leader of some views never starts: the pacemaker must rotate past
     it and keep committing. n=7 here on purpose: with round-robin
     rotation and a *permanently* dead slot, n=4 never produces the
     three consecutive live views (plus a live QC collector) the
     3-chain commit rule needs — a real liveness property of basic
     chained HotStuff, asserted separately below. *)
  let hs =
    Hotstuff.create ~n:7 ~f:2 ~batch_size:10 ~tx_size:64
      ~crashed:(fun i -> i = 2)
      ()
  in
  Hotstuff.start hs;
  Hotstuff.run ~until:(Time.s 5) hs;
  Alcotest.(check bool) "progress despite crashed replica" true
    (Hotstuff.committed_blocks hs > 5);
  Alcotest.(check bool) "timeouts fired" true
    (Fl_metrics.Recorder.counter hs.Hotstuff.recorder "hs_timeouts" > 0);
  Alcotest.(check bool) "chains agree" true (Hotstuff.chains_agree hs)

let test_hotstuff_rr_starvation () =
  (* Documented phenomenon: at n=4 a permanently crashed replica under
     round-robin rotation starves the 3-chain commit rule — consecutive
     live views are capped below what the rule needs. *)
  let hs =
    Hotstuff.create ~n:4 ~f:1 ~batch_size:10 ~tx_size:64
      ~crashed:(fun i -> i = 2)
      ()
  in
  Hotstuff.start hs;
  Hotstuff.run ~until:(Time.s 5) hs;
  Alcotest.(check int) "no commits possible" 0 (Hotstuff.committed_blocks hs)

let test_pbft_cluster_progress () =
  let pb = Pbft_cluster.create ~n:4 ~f:1 ~batch_size:50 ~tx_size:64 () in
  Fl_metrics.Recorder.set_window pb.Pbft_cluster.recorder ~start:(Time.ms 200)
    ~stop:(Time.s 2);
  Pbft_cluster.start pb;
  Pbft_cluster.run ~until:(Time.s 2) pb;
  let d = Pbft_cluster.delivered pb in
  Alcotest.(check bool)
    (Printf.sprintf "orders transactions (%d)" d)
    true (d > 500);
  Alcotest.(check bool) "latency recorded" true
    (Fl_metrics.Recorder.histogram pb.Pbft_cluster.recorder "latency_e2e"
    <> None)

let test_pbft_slower_than_flo_shape () =
  (* The headline comparison shape (Figures 16-17): on identical
     hardware and workload, FLO beats the baselines on throughput. *)
  let open Fl_harness in
  let flo =
    Settings.run_flo
      { (Settings.flo ~n:4 ~workers:4 ~batch:100 ~tx_size:512) with
        Settings.duration = Time.s 2;
        machine = Settings.c5_4xlarge }
  in
  let rival = Settings.baseline ~n:4 ~f:1 ~batch:100 ~tx_size:512 in
  let pbft = Settings.run_pbft rival in
  let hs = Settings.run_hotstuff rival in
  Alcotest.(check bool)
    (Printf.sprintf "FLO (%.0f) > HotStuff (%.0f) tps" flo.Settings.tps
       hs.Settings.tps)
    true
    (flo.Settings.tps > hs.Settings.tps);
  Alcotest.(check bool)
    (Printf.sprintf "FLO (%.0f) > PBFT (%.0f) tps" flo.Settings.tps
       pbft.Settings.tps)
    true
    (flo.Settings.tps > pbft.Settings.tps)

let suite =
  [ Alcotest.test_case "hotstuff progress" `Quick test_hotstuff_progress;
    Alcotest.test_case "hotstuff 3-round finality" `Quick
      test_hotstuff_three_round_finality;
    Alcotest.test_case "hotstuff signatures" `Quick
      test_hotstuff_signature_count;
    Alcotest.test_case "hotstuff leader crash" `Quick
      test_hotstuff_leader_crash;
    Alcotest.test_case "hotstuff RR starvation" `Quick
      test_hotstuff_rr_starvation;
    Alcotest.test_case "pbft cluster progress" `Quick
      test_pbft_cluster_progress;
    Alcotest.test_case "comparison shape" `Slow
      test_pbft_slower_than_flo_shape ]
