open Fl_sim
open Fl_fireledger

let quick_config n =
  { (Config.default ~n) with
    Config.batch_size = 50;
    tx_size = 128;
    initial_timeout = Time.ms 20 }

let make ?seed ?behavior ?config ~n () =
  let config = match config with Some c -> c | None -> quick_config n in
  Cluster.create ?seed ?behavior ~config ()

let progress c =
  Array.to_list (Array.map Instance.definite_upto c.Cluster.instances)

let min_progress c =
  List.fold_left min max_int (progress c)

let test_fault_free_progress () =
  let c = make ~n:4 () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  let p = min_progress c in
  Alcotest.(check bool)
    (Printf.sprintf "all nodes decide many blocks (got %d)" p)
    true (p > 20);
  Alcotest.(check bool) "definite prefixes agree" true
    (Cluster.definite_prefix_agreement c);
  Alcotest.(check int) "no recoveries" 0
    (Fl_metrics.Recorder.counter c.Cluster.recorder "recoveries");
  Alcotest.(check int) "no slow paths" 0
    (Fl_metrics.Recorder.counter c.Cluster.recorder "obbc_slow_paths");
  Alcotest.(check bool) "fast decisions dominate" true
    (Fl_metrics.Recorder.counter c.Cluster.recorder "obbc_fast_decisions" > 0)

let test_chain_integrity () =
  let c = make ~n:4 () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 1) c;
  Array.iter
    (fun i ->
      Alcotest.(check bool) "hash chain intact" true
        (Fl_chain.Store.check_integrity (Instance.store i)))
    c.Cluster.instances

let test_determinism () =
  let chains seed =
    let c = make ~seed ~n:4 () in
    Cluster.start c;
    Cluster.run ~until:(Time.ms 500) c;
    Array.to_list
      (Array.map
         (fun i -> Fl_chain.Store.last_hash (Instance.store i))
         c.Cluster.instances)
  in
  Alcotest.(check bool) "same seed, same run" true (chains 7 = chains 7);
  Alcotest.(check bool) "different seed differs" true (chains 7 <> chains 8)

let test_crash_failures () =
  (* f nodes crash mid-run; the rest keep deciding. *)
  let n = 7 in
  let c = make ~n () in
  Cluster.start c;
  Cluster.run ~until:(Time.ms 500) c;
  Cluster.crash c 1;
  Cluster.crash c 3;
  let before =
    Array.to_list
      (Array.map Instance.definite_upto c.Cluster.instances)
    |> List.filteri (fun i _ -> i <> 1 && i <> 3)
    |> List.fold_left min max_int
  in
  Cluster.run ~until:(Time.s 4) c;
  let alive = [ 0; 2; 4; 5; 6 ] in
  let after =
    List.fold_left
      (fun acc i -> min acc (Instance.definite_upto c.Cluster.instances.(i)))
      max_int alive
  in
  Alcotest.(check bool)
    (Printf.sprintf "alive nodes keep deciding (%d -> %d)" before after)
    true (after > before + 10);
  Alcotest.(check bool) "agreement among alive" true
    (Cluster.definite_prefix_agreement c)

let test_byzantine_equivocation () =
  let n = 4 in
  let behavior i = if i = 2 then Instance.Equivocator else Instance.Honest in
  let c = make ~n ~behavior () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 3) c;
  let recs = Fl_metrics.Recorder.counter c.Cluster.recorder "recoveries" in
  Alcotest.(check bool)
    (Printf.sprintf "recoveries happened (%d)" recs)
    true (recs > 0);
  (* Safety: correct nodes agree on their definite prefixes. *)
  let correct = [ 0; 1; 3 ] in
  let upto =
    List.fold_left
      (fun acc i -> min acc (Instance.definite_upto c.Cluster.instances.(i)))
      max_int correct
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress despite Byzantine proposer (%d)" upto)
    true (upto > 5);
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i < j then
            for r = 0 to upto do
              let b x =
                match
                  Fl_chain.Store.get
                    (Instance.store c.Cluster.instances.(x))
                    r
                with
                | Some b -> Fl_chain.Block.hash b
                | None -> ""
              in
              Alcotest.(check bool)
                (Printf.sprintf "round %d agreement %d/%d" r i j)
                true
                (String.equal (b i) (b j))
            done)
        correct)
    correct

(* Client transactions in an equivocator's own rescinded blocks go
   back into its pool at their original fee: recovery re-queues them,
   and none vanishes. *)
let test_recovery_readmits_client_txs () =
  let ledger = Conservation.create ~node:2 in
  let behavior i = if i = 2 then Instance.Equivocator else Instance.Honest in
  let c =
    Cluster.create ~seed:1 ~behavior ~output:(Conservation.output ledger)
      ~config:(quick_config 4) ()
  in
  Conservation.attach_load ledger c ~period:(Time.ms 2);
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  Alcotest.(check bool) "recoveries happened" true
    (Fl_metrics.Recorder.counter c.Cluster.recorder "recoveries" > 0);
  Alcotest.(check bool) "rescinded client txs re-queued" true
    (Fl_metrics.Recorder.counter c.Cluster.recorder "txs_readmitted" > 0);
  Conservation.check ledger c

let test_non_triviality () =
  (* Blocks carry transactions (Non-Triviality of §3.3). *)
  let c = make ~n:4 () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 1) c;
  let i = c.Cluster.instances.(0) in
  let nonempty = ref 0 in
  Fl_chain.Store.iter (Instance.store i) (fun b ->
      if b.Fl_chain.Block.header.Fl_chain.Header.tx_count > 0 then
        incr nonempty);
  Alcotest.(check bool) "blocks are non-empty" true (!nonempty > 10)

let test_rotation_covers_nodes () =
  (* Every f+1 consecutive blocks must have f+1 distinct proposers
     (Lemma 5.3.2) and, fault-free round-robin, all nodes propose. *)
  let c = make ~n:4 () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 1) c;
  let store = Instance.store c.Cluster.instances.(0) in
  let proposers = ref [] in
  Fl_chain.Store.iter store (fun b ->
      proposers := b.Fl_chain.Block.header.Fl_chain.Header.proposer :: !proposers);
  let ps = Array.of_list (List.rev !proposers) in
  let f = 1 in
  for i = 0 to Array.length ps - (f + 1) do
    let w = Array.sub ps i (f + 1) in
    let distinct = List.sort_uniq compare (Array.to_list w) in
    Alcotest.(check int)
      (Printf.sprintf "window at %d distinct" i)
      (f + 1) (List.length distinct)
  done;
  Alcotest.(check int) "all nodes propose" 4
    (List.length (List.sort_uniq compare (Array.to_list ps)))

let test_ablation_no_piggyback () =
  let config = { (quick_config 4) with Config.piggyback = false } in
  let c = make ~n:4 ~config () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  Alcotest.(check bool) "progress without piggyback" true (min_progress c > 5);
  Alcotest.(check bool) "agreement" true (Cluster.definite_prefix_agreement c)

let test_ablation_inline_bodies () =
  let config = { (quick_config 4) with Config.separate_bodies = false } in
  let c = make ~n:4 ~config () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  Alcotest.(check bool) "progress with inline bodies" true
    (min_progress c > 5);
  Alcotest.(check bool) "agreement" true (Cluster.definite_prefix_agreement c)

let test_permuted_rotation () =
  let config =
    { (quick_config 7) with
      Config.permute_proposers = true;
      permute_period = 16 }
  in
  let c = make ~n:7 ~config () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  Alcotest.(check bool) "progress with permuted rotation" true
    (min_progress c > 10);
  Alcotest.(check bool) "agreement" true (Cluster.definite_prefix_agreement c)

(* Two equal clusters run in step until node 3 of the second crashes,
   so their chains share a prefix and then part. Pairing their
   instances, every cross pair parts at the same first round, below
   which the blocks agree; a crashed node's pairs are skipped. *)
let test_prefix_disagreements () =
  let a = make ~n:4 () and b = make ~n:4 () in
  List.iter Cluster.start [ a; b ];
  List.iter (Cluster.run ~until:(Time.ms 150)) [ a; b ];
  Cluster.crash b 3;
  List.iter (Cluster.run ~until:(Time.ms 400)) [ a; b ];
  let a = a.Cluster.instances and b = b.Cluster.instances in
  let none = Hashtbl.create 1 in
  Alcotest.(check int) "one cluster agrees" 0
    (List.length (Cluster.disagreements ~crashed:none a));
  let mixed = [| a.(0); a.(1); b.(0) |] in
  let hash inst r =
    Option.map Fl_chain.Block.hash (Fl_chain.Store.get (Instance.store inst) r)
  in
  (match Cluster.disagreements ~crashed:none mixed with
  | [ (0, 2, r, Cluster.Diverged); (1, 2, r', Cluster.Diverged) ] ->
      Alcotest.(check int) "same first round" r r';
      Alcotest.(check bool) "genesis is common" true (r >= 1);
      for k = 0 to r - 1 do
        Alcotest.(check (option string))
          (Printf.sprintf "round %d agrees" k)
          (hash a.(0) k) (hash b.(0) k)
      done;
      Alcotest.(check bool) "round r differs" true
        (hash a.(0) r <> hash b.(0) r)
  | d -> Alcotest.failf "expected pairs (0,2) and (1,2), got %d" (List.length d));
  let crashed = Hashtbl.create 1 in
  Hashtbl.replace crashed 2 ();
  Alcotest.(check bool) "crashed node skipped" true
    (Cluster.agreement ~crashed mixed)

let suite =
  [ Alcotest.test_case "fault-free progress" `Quick test_fault_free_progress;
    Alcotest.test_case "chain integrity" `Quick test_chain_integrity;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "crash failures" `Quick test_crash_failures;
    Alcotest.test_case "byzantine equivocation" `Quick
      test_byzantine_equivocation;
    Alcotest.test_case "recovery readmits client txs" `Quick
      test_recovery_readmits_client_txs;
    Alcotest.test_case "non-triviality" `Quick test_non_triviality;
    Alcotest.test_case "rotation" `Quick test_rotation_covers_nodes;
    Alcotest.test_case "ablation: no piggyback" `Quick
      test_ablation_no_piggyback;
    Alcotest.test_case "ablation: inline bodies" `Quick
      test_ablation_inline_bodies;
    Alcotest.test_case "permuted rotation" `Quick test_permuted_rotation;
    Alcotest.test_case "prefix disagreements" `Quick test_prefix_disagreements ]
