open Fl_sim
open Fl_fireledger
open Fl_chain

(* ---------- chain serialization ---------- *)

let sample_store ?(with_payloads = false) rounds =
  let store = Store.create () in
  for r = 0 to rounds - 1 do
    let txs =
      Array.init 4 (fun i ->
          if with_payloads then
            Tx.create_payload ~id:((r * 10) + i)
              (Printf.sprintf "payload-%d-%d" r i)
          else Tx.create ~id:((r * 10) + i) ~size:100)
    in
    let b =
      Block.create ~round:r ~proposer:(r mod 4)
        ~prev_hash:(Store.last_hash store) txs
    in
    match Store.append store b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "append: %a" Store.pp_error e
  done;
  store

let test_block_roundtrip () =
  let store = sample_store ~with_payloads:true 3 in
  Store.iter store (fun b ->
      match Serial.block_of_string (Serial.block_to_string b) with
      | Ok b' -> Alcotest.(check bool) "block equal" true (Block.equal b b')
      | Error e -> Alcotest.failf "decode: %s" e)

let test_chain_roundtrip () =
  let store = sample_store 8 in
  match Serial.decode_chain (Serial.encode_chain store) with
  | Ok store' ->
      Alcotest.(check int) "length" 8 (Store.length store');
      Alcotest.(check string) "tip" (Store.last_hash store)
        (Store.last_hash store');
      Alcotest.(check bool) "integrity" true (Store.check_integrity store')
  | Error e -> Alcotest.failf "decode: %s" e

let test_chain_roundtrip_pruned () =
  let store = sample_store 10 in
  Store.prune store ~keep_from:6;
  match Serial.decode_chain (Serial.encode_chain store) with
  | Ok store' ->
      Alcotest.(check int) "length" 10 (Store.length store');
      Alcotest.(check int) "pruned marker survives" 6
        (Store.pruned_below store');
      Alcotest.(check bool) "integrity honours pruning" true
        (Store.check_integrity store')
  | Error e -> Alcotest.failf "decode: %s" e

let test_chain_rejects_corruption () =
  let store = sample_store 4 in
  let enc = Fl_wire.Sparse.to_string (Serial.encode_chain store) in
  let decode s = Serial.decode_chain (Fl_wire.Sparse.of_string s) in
  (* Flip a byte inside a block body region. *)
  let corrupt = Bytes.of_string enc in
  Bytes.set corrupt (String.length enc - 20)
    (Char.chr (Char.code enc.[String.length enc - 20] lxor 0xff));
  (match decode (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption accepted");
  (match decode (String.sub enc 0 (String.length enc / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation accepted");
  match decode ("XX" ^ enc) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_save_load_file () =
  let store = sample_store 5 in
  let path = Filename.temp_file "flchain" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save store ~path;
      match Serial.load ~path with
      | Ok store' ->
          Alcotest.(check string) "tip preserved" (Store.last_hash store)
            (Store.last_hash store')
      | Error e -> Alcotest.failf "load: %s" e)

let prop_block_roundtrip =
  QCheck.Test.make ~name:"serial: arbitrary blocks roundtrip" ~count:50
    QCheck.(pair (list_of_size Gen.(0 -- 10) (pair small_nat small_nat)) small_nat)
    (fun (specs, round) ->
      let txs =
        Array.of_list
          (List.mapi (fun i (id, size) -> Tx.create ~id:(id + i) ~size) specs)
      in
      let b =
        Block.create ~round ~proposer:0 ~prev_hash:Block.genesis_hash txs
      in
      match Serial.block_of_string (Serial.block_to_string b) with
      | Ok b' -> Block.equal b b'
      | Error _ -> false)

(* ---------- event capture ---------- *)

let fireledger_events sink =
  List.filter
    (fun (e : Fl_obs.Obs.event) -> String.equal e.cat "fireledger")
    (Fl_obs.Obs.events sink)

let named name events =
  List.filter (fun (e : Fl_obs.Obs.event) -> String.equal e.name name) events

let test_trace_capture_and_fingerprint () =
  let run () =
    let sink = Fl_obs.Obs.create () in
    let config =
      { (Config.default ~n:4) with Config.batch_size = 10; tx_size = 32 }
    in
    let c = Cluster.create ~seed:77 ~obs:sink ~config () in
    Cluster.start c;
    Cluster.run ~until:(Time.ms 300) c;
    sink
  in
  let s1 = run () in
  let events = fireledger_events s1 in
  Alcotest.(check bool) "events captured" true (List.length events > 10);
  Alcotest.(check bool) "tentative events present" true
    (named "tentative" events <> []);
  Alcotest.(check int) "no recoveries" 0
    (List.length (named "recovery_start" events @ named "recovery" events));
  (* Determinism: same seed, same fingerprint. *)
  let s2 = run () in
  Alcotest.(check string) "replay-identical events" (Fl_obs.Obs.fingerprint s1)
    (Fl_obs.Obs.fingerprint s2)

let test_trace_byzantine_events () =
  let sink = Fl_obs.Obs.create () in
  let config =
    { (Config.default ~n:4) with Config.batch_size = 10; tx_size = 32 }
  in
  let c =
    Cluster.create ~seed:5 ~obs:sink
      ~behavior:(fun i -> if i = 2 then Instance.Equivocator else Instance.Honest)
      ~config ()
  in
  Cluster.start c;
  Cluster.run ~until:(Time.s 1) c;
  let events = fireledger_events sink in
  Alcotest.(check bool) "proof events" true (named "proof" events <> []);
  Alcotest.(check bool) "recovery start events" true
    (named "recovery_start" events <> []);
  Alcotest.(check bool) "recovery spans" true (named "recovery" events <> [])

(* ---------- gossip dissemination ---------- *)

let gossip_config n =
  { (Config.default ~n) with
    Config.batch_size = 50;
    tx_size = 128;
    dissemination = Config.Gossip 3 }

let test_gossip_progress_and_agreement () =
  let c = Cluster.create ~seed:9 ~config:(gossip_config 7) () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  let p =
    Array.fold_left
      (fun acc i -> min acc (Instance.definite_upto i))
      max_int c.Cluster.instances
  in
  Alcotest.(check bool)
    (Printf.sprintf "progress under gossip (%d)" p)
    true (p > 10);
  Alcotest.(check bool) "agreement" true (Cluster.definite_prefix_agreement c)

let test_gossip_trade_off () =
  (* Gossip spares the proposer the n−1 unicast burst (it sends only
     [fanout] copies; peers forward) at the price of redundant total
     traffic — the §7.2 trade-off. Total bytes/block must go UP under
     gossip while progress is preserved. *)
  let run dissemination =
    let config =
      { (gossip_config 10) with Config.dissemination; pipeline_depth = 1 }
    in
    let c = Cluster.create ~seed:9 ~config () in
    Cluster.start c;
    Cluster.run ~until:(Time.s 1) c;
    let sent =
      Array.fold_left (fun acc nic -> acc + Fl_net.Nic.bytes_sent nic) 0
        c.Cluster.nics
    in
    let blocks = Store.length (Instance.store c.Cluster.instances.(0)) in
    (float_of_int sent /. float_of_int (max 1 blocks), blocks)
  in
  let clique_bytes, clique_blocks = run Config.Clique in
  let gossip_bytes, gossip_blocks = run (Config.Gossip 3) in
  Alcotest.(check bool)
    (Printf.sprintf "gossip pays redundancy (%.0f vs %.0f B/block)"
       gossip_bytes clique_bytes)
    true
    (gossip_bytes > clique_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "both make progress (%d vs %d)" gossip_blocks
       clique_blocks)
    true
    (gossip_blocks > 10 && clique_blocks > 10)

(* ---------- pipeline depth ---------- *)

let test_pipeline_depth_progress () =
  let config =
    { (Config.default ~n:7) with
      Config.batch_size = 100;
      tx_size = 256;
      pipeline_depth = 4;
      max_outstanding = 16 }
  in
  let c = Cluster.create ~seed:13 ~config () in
  Cluster.start c;
  Cluster.run ~until:(Time.s 2) c;
  let p =
    Array.fold_left
      (fun acc i -> min acc (Instance.definite_upto i))
      max_int c.Cluster.instances
  in
  Alcotest.(check bool)
    (Printf.sprintf "deep pipeline still live (%d)" p)
    true (p > 20);
  Alcotest.(check bool) "agreement" true (Cluster.definite_prefix_agreement c)

let suite =
  [ Alcotest.test_case "serial block roundtrip" `Quick test_block_roundtrip;
    Alcotest.test_case "serial chain roundtrip" `Quick test_chain_roundtrip;
    Alcotest.test_case "serial pruned chain" `Quick test_chain_roundtrip_pruned;
    Alcotest.test_case "serial rejects corruption" `Quick
      test_chain_rejects_corruption;
    Alcotest.test_case "serial save/load" `Quick test_save_load_file;
    QCheck_alcotest.to_alcotest prop_block_roundtrip;
    Alcotest.test_case "trace capture" `Quick test_trace_capture_and_fingerprint;
    Alcotest.test_case "trace byzantine" `Quick test_trace_byzantine_events;
    Alcotest.test_case "gossip progress" `Quick
      test_gossip_progress_and_agreement;
    Alcotest.test_case "gossip trade-off" `Quick test_gossip_trade_off;
    Alcotest.test_case "pipeline depth" `Quick test_pipeline_depth_progress ]
