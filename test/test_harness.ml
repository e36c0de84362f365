open Fl_sim
open Fl_harness

let test_table_formatting () =
  Alcotest.(check string) "grouping" "1,234,567" (Table.cell_i 1234567);
  Alcotest.(check string) "small" "42" (Table.cell_i 42);
  Alcotest.(check string) "float" "1,234.5" (Table.cell_f 1234.49);
  Alcotest.(check string) "decimals" "0.25" (Table.cell_f ~dec:2 0.251);
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x"; "y" ];
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let quick ~n ~workers =
  { (Settings.flo ~n ~workers ~batch:20 ~tx_size:64) with
    Settings.warmup = Time.ms 300;
    duration = Time.ms 700 }

let test_run_flo_produces_metrics () =
  let r = Settings.run_flo (quick ~n:4 ~workers:2) in
  Alcotest.(check bool) "tps > 0" true (r.Settings.tps > 0.0);
  Alcotest.(check bool) "bps > 0" true (r.Settings.bps > 0.0);
  Alcotest.(check bool) "tps = bps * batch" true
    (abs_float (r.Settings.tps -. (20.0 *. r.Settings.bps)) < 0.5 *. r.Settings.tps);
  Alcotest.(check bool) "latency positive" true (r.Settings.lat_mean_ms > 0.0);
  Alcotest.(check bool) "quantiles ordered" true
    (r.Settings.lat_p50_ms <= r.Settings.lat_p90_ms
    && r.Settings.lat_p90_ms <= r.Settings.lat_p99_ms);
  Alcotest.(check bool) "cpu util sane" true
    (r.Settings.cpu_util >= 0.0 && r.Settings.cpu_util <= 1.0);
  Alcotest.(check (float 0.001)) "no recoveries" 0.0 r.Settings.rps

let test_run_flo_deterministic () =
  let a = Settings.run_flo (quick ~n:4 ~workers:1) in
  let b = Settings.run_flo (quick ~n:4 ~workers:1) in
  Alcotest.(check (float 0.001)) "identical tps" a.Settings.tps b.Settings.tps;
  Alcotest.(check (float 0.001)) "identical latency" a.Settings.lat_mean_ms
    b.Settings.lat_mean_ms

let test_crash_fault_injection () =
  let s =
    { (quick ~n:7 ~workers:1) with
      Settings.faults =
        { Settings.no_faults with
          Settings.crash_at = Some (Time.ms 100, [ 1; 3 ]) } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "progress despite crashes" true (r.Settings.tps > 0.0)

let test_byzantine_fault_injection () =
  let s =
    { (quick ~n:4 ~workers:1) with
      Settings.duration = Time.s 2;
      faults = { Settings.no_faults with Settings.byzantine = [ 1 ] } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "recoveries observed" true (r.Settings.rps > 0.0);
  Alcotest.(check bool) "still delivering" true (r.Settings.tps > 0.0)

let test_loss_fault_injection () =
  let s =
    { (quick ~n:4 ~workers:1) with
      Settings.duration = Time.s 2;
      faults = { Settings.no_faults with Settings.loss = Some (1, 0.7) } }
  in
  let r = Settings.run_flo s in
  Alcotest.(check bool) "slow paths under omission" true
    (Fl_metrics.Recorder.counter r.Settings.recorder "obbc_slow_paths" > 0);
  Alcotest.(check bool) "still delivering" true (r.Settings.tps > 0.0)

(* A crash installs its own filter on every net; the loss a setting asks
   for must survive it. Node 1 loses every outbound frame, so it puts
   no byte on the wire to node 0, whether or not node 3 crashes. *)
let test_loss_survives_crash () =
  List.iter
    (fun crash_at ->
      let s =
        { (quick ~n:4 ~workers:1) with
          Settings.faults =
            { Settings.no_faults with Settings.loss = Some (1, 1.0); crash_at }
        }
      in
      let cluster = Settings.build_flo s in
      ignore (Settings.run_cluster s cluster);
      Alcotest.(check int)
        (Printf.sprintf "bytes on 1->0 (crash: %b)" (crash_at <> None))
        0
        (Array.fold_left
           (fun acc net -> acc + Fl_net.Net.link_bytes net ~src:1 ~dst:0)
           0 cluster.Fl_flo.Cluster.nets))
    [ None; Some (Time.ms 500, [ 3 ]) ]

(* Table 1 divides like by like: in-window signatures and verifications
   over in-window blocks. A fault-free block costs its proposer's one
   signature and one verification at each of the n nodes (§5, §7). *)
let test_table1_costs_per_block () =
  List.iter
    (fun n ->
      let r =
        Settings.run_flo
          { (Settings.flo ~n ~workers:1 ~batch:100 ~tx_size:512) with
            Settings.warmup = Time.ms 300;
            duration = Time.ms 700 }
      in
      let windowed = Fl_metrics.Recorder.windowed_count r.Settings.recorder in
      let blocks = float_of_int (windowed "blocks_delivered" / n) in
      let per_block name = float_of_int (windowed name) /. blocks in
      let near what ~want got =
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: %s per block %.3f, want %g +- 2%%" n what
             got want)
          true
          (blocks > 0. && Float.abs (got -. want) <= 0.02 *. want)
      in
      near "signatures" ~want:1.0 (per_block "signatures");
      near "verifications" ~want:(float_of_int n) (per_block "verifications"))
    [ 4; 7 ]

let test_latency_cdf () =
  let cdf = Settings.latency_cdf (quick ~n:4 ~workers:1) ~points:10 in
  Alcotest.(check int) "10 points" 10 (List.length cdf);
  let ms = List.map fst cdf in
  Alcotest.(check bool) "monotone values" true (List.sort compare ms = ms)

let test_experiment_registry () =
  Alcotest.(check int) "17 experiments" 17
    (List.length Experiments.all);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" id)
        true
        (List.exists (fun (i, _, _) -> String.equal i id) Experiments.all))
    [ "table1"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
      "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fig17"; "ablations";
      "restart_durable"; "saturation" ];
  Alcotest.(check bool) "unknown id rejected" false
    (Experiments.run_by_id "nope" Experiments.Quick)

(* One sink shared across domains would interleave unsynchronised, so
   the drivers refuse [~obs] with [~jobs > 1] up front instead of
   quietly running sequentially. *)
let test_experiments_fail_closed () =
  let sink = Fl_obs.Obs.create () in
  let runs0 = (Settings.run_stats ()).Settings.rs_runs in
  let refused = Invalid_argument "Experiments: an obs sink needs jobs = 1" in
  Alcotest.check_raises "run_by_id" refused (fun () ->
      ignore
        (Experiments.run_by_id ~obs:sink ~jobs:2 "table1" Experiments.Quick));
  Alcotest.check_raises "run_all" refused (fun () ->
      Experiments.run_all ~obs:sink ~jobs:2 Experiments.Quick);
  Alcotest.(check int) "nothing ran" runs0
    (Settings.run_stats ()).Settings.rs_runs;
  Alcotest.(check int) "sink untouched" 0 (Fl_obs.Obs.count sink);
  Alcotest.(check bool) "unknown id with obs rejected" false
    (Experiments.run_by_id ~obs:sink "nope" Experiments.Quick)

(* Every driver's runs go through one sweep whose results merge in
   list order, so [jobs] must not change a table. *)
let test_tables_independent_of_jobs () =
  let table1 =
    match
      List.find_opt (fun (i, _, _) -> String.equal i "table1") Experiments.all
    with
    | Some (_, _, driver) -> driver
    | None -> Alcotest.fail "table1 not registered"
  in
  let tables jobs =
    let runs0 = (Settings.run_stats ()).Settings.rs_runs in
    let rendered =
      List.map Table.render
        (table1 { Experiments.mode = Quick; jobs; obs = None })
    in
    Alcotest.(check int)
      (Printf.sprintf "three runs at jobs=%d" jobs)
      (runs0 + 3)
      (Settings.run_stats ()).Settings.rs_runs;
    rendered
  in
  let sequential = tables 1 in
  Alcotest.(check (list string)) "jobs=2 renders as jobs=1" sequential
    (tables 2)

(* Bad [--persist] text fails as documented, and no config reaches a
   node with a group-commit span whose flusher would sleep 0 forever. *)
let test_persist_of_string_rejects () =
  Alcotest.(check bool)
    "5ms parses" true
    ((Settings.persist_of_string "group_commit:5ms").Fl_persist.Node.sync
    = Fl_persist.Node.Group_commit (Time.ms 5));
  List.iter
    (fun s ->
      match Settings.persist_of_string s with
      | _ -> Alcotest.failf "%S accepted" s
      | exception Invalid_argument _ -> ())
    [ "group_commit:abc"; "group_commit:0ms"; "group_commit:-3" ];
  let config =
    { Fl_persist.Node.default_config with
      Fl_persist.Node.sync = Fl_persist.Node.Group_commit 0 }
  in
  match Fl_persist.Node.create (Engine.create ()) ~config () with
  | _ -> Alcotest.fail "zero group-commit span accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [ Alcotest.test_case "table formatting" `Quick test_table_formatting;
    Alcotest.test_case "run_flo metrics" `Quick test_run_flo_produces_metrics;
    Alcotest.test_case "run_flo deterministic" `Quick
      test_run_flo_deterministic;
    Alcotest.test_case "crash injection" `Quick test_crash_fault_injection;
    Alcotest.test_case "byzantine injection" `Quick
      test_byzantine_fault_injection;
    Alcotest.test_case "loss injection" `Quick test_loss_fault_injection;
    Alcotest.test_case "loss survives a crash" `Quick test_loss_survives_crash;
    Alcotest.test_case "table 1 costs per block" `Quick
      test_table1_costs_per_block;
    Alcotest.test_case "latency cdf" `Quick test_latency_cdf;
    Alcotest.test_case "experiment registry" `Quick test_experiment_registry;
    Alcotest.test_case "persist_of_string rejects bad spans" `Quick
      test_persist_of_string_rejects;
    Alcotest.test_case "experiments fail closed" `Quick
      test_experiments_fail_closed;
    Alcotest.test_case "experiment tables independent of jobs" `Slow
      test_tables_independent_of_jobs ]
