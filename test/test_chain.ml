open Fl_chain

let mk_txs ?(base = 0) count =
  Array.init count (fun i -> Tx.create ~id:(base + i) ~size:512)

let chain_of_blocks proposers =
  (* Build a well-linked chain, one block per proposer in the list. *)
  let store = Store.create () in
  List.iteri
    (fun round proposer ->
      let b =
        Block.create ~round ~proposer ~prev_hash:(Store.last_hash store)
          (mk_txs ~base:(round * 10) 3)
      in
      match Store.append store b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append %d: %a" round Store.pp_error e)
    proposers;
  store

let test_block_commitment () =
  let txs = mk_txs 5 in
  let b = Block.create ~round:0 ~proposer:1 ~prev_hash:Block.genesis_hash txs in
  Alcotest.(check bool) "body matches" true (Block.body_matches b);
  Alcotest.(check int) "tx count" 5 b.Block.header.Header.tx_count;
  Alcotest.(check int) "body size" (5 * 512) b.Block.header.Header.body_size;
  (* Tampering with the body must break the commitment. *)
  let tampered = { b with Block.txs = mk_txs ~base:100 5 } in
  Alcotest.(check bool) "tamper detected" false (Block.body_matches tampered)

let test_header_hash_distinct () =
  let txs = mk_txs 2 in
  let b1 = Block.create ~round:0 ~proposer:0 ~prev_hash:Block.genesis_hash txs in
  let b2 = Block.create ~round:0 ~proposer:1 ~prev_hash:Block.genesis_hash txs in
  Alcotest.(check bool) "proposer affects hash" false
    (String.equal (Block.hash b1) (Block.hash b2))

(* The derived fields are what {!Header.make} says they are: [enc] is
   the canonical encoding, written here field by field, and [hash] its
   SHA-256. Decoding rebuilds them, and content changes move them. *)
let test_header_derived_fields () =
  let b = Block.create ~round:5 ~proposer:2 ~prev_hash:Block.genesis_hash (mk_txs 3) in
  let h = b.Block.header in
  let w = Fl_wire.Codec.Writer.create () in
  Fl_wire.Codec.Writer.u64 w h.Header.round;
  Fl_wire.Codec.Writer.u32 w h.Header.proposer;
  Fl_wire.Codec.Writer.raw w h.Header.prev_hash;
  Fl_wire.Codec.Writer.raw w h.Header.body_hash;
  Fl_wire.Codec.Writer.u32 w h.Header.tx_count;
  Fl_wire.Codec.Writer.u64 w h.Header.body_size;
  let fields = Fl_wire.Codec.Writer.contents w in
  Alcotest.(check string) "encode is the field encoding" fields
    (Header.encode h);
  let w = Fl_wire.Codec.Writer.create () in
  Serial.encode_header w h;
  Alcotest.(check string) "encode = Serial.encode_header" (Header.encode h)
    (Fl_wire.Codec.Writer.contents w);
  Alcotest.(check string) "hash = digest of encode"
    (Fl_crypto.Hex.encode (Fl_crypto.Sha256.digest (Header.encode h)))
    (Fl_crypto.Hex.encode (Header.hash h));
  let d = Serial.decode_header (Fl_wire.Codec.Reader.of_string fields) in
  Alcotest.(check bool) "decoded = original, derived fields included" true
    (d = h && Header.equal d h);
  let h' =
    Header.make ~round:h.round ~proposer:(h.proposer + 1)
      ~prev_hash:h.prev_hash ~body_hash:h.body_hash ~tx_count:h.tx_count
      ~body_size:h.body_size
  in
  Alcotest.(check bool) "other proposer, other hash" false
    (String.equal (Header.hash h) (Header.hash h'));
  Alcotest.(check string) "rebuilt hash = digest of its encode"
    (Fl_crypto.Sha256.digest (Header.encode h'))
    (Header.hash h')

let test_store_append_and_links () =
  let store = chain_of_blocks [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "length" 4 (Store.length store);
  Alcotest.(check bool) "integrity" true (Store.check_integrity store);
  (* Wrong round rejected. *)
  let b =
    Block.create ~round:7 ~proposer:0 ~prev_hash:(Store.last_hash store)
      (mk_txs 1)
  in
  (match Store.append store b with
  | Error (Store.Wrong_round _) -> ()
  | _ -> Alcotest.fail "expected Wrong_round");
  (* Broken link rejected. *)
  let b = Block.create ~round:4 ~proposer:0 ~prev_hash:Block.genesis_hash (mk_txs 1) in
  match Store.append store b with
  | Error Store.Broken_link -> ()
  | _ -> Alcotest.fail "expected Broken_link"

let test_store_replace_suffix () =
  let store = chain_of_blocks [ 0; 1; 2; 3; 0 ] in
  let fork_round = 3 in
  let prev =
    match Store.get store (fork_round - 1) with
    | Some b -> Block.hash b
    | None -> Alcotest.fail "missing block"
  in
  let b3 = Block.create ~round:3 ~proposer:2 ~prev_hash:prev (mk_txs ~base:90 4) in
  let b4 =
    Block.create ~round:4 ~proposer:3 ~prev_hash:(Block.hash b3)
      (mk_txs ~base:94 4)
  in
  let b5 =
    Block.create ~round:5 ~proposer:0 ~prev_hash:(Block.hash b4)
      (mk_txs ~base:98 4)
  in
  (match Store.replace_suffix store ~from:fork_round [ b3; b4; b5 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replace: %a" Store.pp_error e);
  Alcotest.(check int) "longer chain adopted" 6 (Store.length store);
  Alcotest.(check bool) "integrity preserved" true (Store.check_integrity store);
  match Store.get store 3 with
  | Some b -> Alcotest.(check int) "new block 3" 2 b.Block.header.Header.proposer
  | None -> Alcotest.fail "missing block 3"

let test_store_replace_rejects_broken () =
  let store = chain_of_blocks [ 0; 1; 2 ] in
  let bogus =
    Block.create ~round:1 ~proposer:1 ~prev_hash:Block.genesis_hash (mk_txs 1)
  in
  (match Store.replace_suffix store ~from:1 [ bogus ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected link error");
  Alcotest.(check bool) "chain intact" true (Store.check_integrity store)

let test_store_sub () =
  let store = chain_of_blocks [ 0; 1; 2; 3; 0 ] in
  let tail = Store.sub store ~from:3 in
  Alcotest.(check int) "two blocks" 2 (List.length tail);
  Alcotest.(check (list int)) "rounds" [ 3; 4 ]
    (List.map (fun b -> b.Block.header.Header.round) tail);
  Alcotest.(check int) "negative from clamps" 5
    (List.length (Store.sub store ~from:(-2)))

let test_mempool () =
  let pool = Mempool.create ~capacity:3 () in
  Alcotest.(check bool) "accept 1" true (Mempool.submit pool (Tx.create ~id:1 ~size:10));
  Alcotest.(check bool) "accept 2" true (Mempool.submit pool (Tx.create ~id:2 ~size:20));
  Alcotest.(check bool) "accept 3" true (Mempool.submit pool (Tx.create ~id:3 ~size:30));
  Alcotest.(check bool) "reject at capacity" false
    (Mempool.submit pool (Tx.create ~id:4 ~size:40));
  Alcotest.(check int) "pending bytes" 60 (Mempool.pending_bytes pool);
  let batch = Mempool.take_batch pool ~max:2 in
  Alcotest.(check (list int)) "fifo batch" [ 1; 2 ]
    (Array.to_list (Array.map (fun tx -> tx.Tx.id) batch));
  Alcotest.(check int) "remaining" 1 (Mempool.size pool);
  Alcotest.(check int) "bytes updated" 30 (Mempool.pending_bytes pool);
  Alcotest.(check int) "counters" 3 (Mempool.submitted_total pool);
  Alcotest.(check int) "backpressured" 1 (Mempool.backpressured_total pool)

let test_tx_digest () =
  let a = Tx.create ~id:1 ~size:512 in
  let b = Tx.create ~id:2 ~size:512 in
  Alcotest.(check bool) "distinct ids, distinct digests" false
    (String.equal (Tx.digest a) (Tx.digest b));
  let p = Tx.create_payload ~id:1 "real bytes" in
  Alcotest.(check string) "payload digest is sha256"
    (Fl_crypto.Hex.encode (Fl_crypto.Sha256.digest "real bytes"))
    (Fl_crypto.Hex.encode (Tx.digest p));
  Alcotest.(check int) "payload sets size" 10 p.Tx.size

(* ---- replace_suffix × prune interaction ---- *)

let test_store_prune_then_replace () =
  let store = chain_of_blocks [ 0; 1; 2; 3; 0; 1; 2; 3 ] in
  Store.prune store ~keep_from:4;
  Alcotest.(check int) "pruned_below" 4 (Store.pruned_below store);
  (match Store.get store 2 with
  | Some b -> Alcotest.(check int) "pruned body dropped" 0 (Array.length b.Block.txs)
  | None -> Alcotest.fail "pruned header must survive");
  Alcotest.(check bool) "integrity with pruned prefix" true
    (Store.check_integrity store);
  (* Replace the tentative suffix strictly above the prune boundary. *)
  let prev =
    match Store.get store 5 with
    | Some b -> Block.hash b
    | None -> Alcotest.fail "missing block 5"
  in
  let b6 = Block.create ~round:6 ~proposer:1 ~prev_hash:prev (mk_txs ~base:60 2) in
  let b7 =
    Block.create ~round:7 ~proposer:2 ~prev_hash:(Block.hash b6)
      (mk_txs ~base:70 2)
  in
  let b8 =
    Block.create ~round:8 ~proposer:3 ~prev_hash:(Block.hash b7)
      (mk_txs ~base:80 2)
  in
  (match Store.replace_suffix store ~from:6 [ b6; b7; b8 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replace above prune boundary: %a" Store.pp_error e);
  Alcotest.(check int) "grew by one" 9 (Store.length store);
  Alcotest.(check int) "prune boundary untouched" 4 (Store.pruned_below store);
  Alcotest.(check bool) "integrity after replace" true (Store.check_integrity store);
  (* Pruning further, past the replaced rounds, must stay coherent. *)
  Store.prune store ~keep_from:7;
  Alcotest.(check bool) "integrity after second prune" true
    (Store.check_integrity store);
  match Store.get store 6 with
  | Some b -> Alcotest.(check int) "newly pruned body dropped" 0 (Array.length b.Block.txs)
  | None -> Alcotest.fail "missing block 6"

let test_store_replace_at_prune_boundary () =
  let store = chain_of_blocks [ 0; 1; 2; 3; 0; 1 ] in
  Store.prune store ~keep_from:4;
  (* The first replacement block links to the hash of a pruned block —
     pruning keeps headers and memoised hashes, so this must work. *)
  let prev =
    match Store.get store 3 with
    | Some b -> Block.hash b
    | None -> Alcotest.fail "missing block 3"
  in
  let b4 = Block.create ~round:4 ~proposer:3 ~prev_hash:prev (mk_txs ~base:40 2) in
  (match Store.replace_suffix store ~from:4 [ b4 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replace at boundary: %a" Store.pp_error e);
  (* The chain shrank to 5 rounds; the boundary survives and integrity
     holds (rounds < pruned_below skip the body check, the replaced
     round carries a full body again). *)
  Alcotest.(check int) "shrunk" 5 (Store.length store);
  Alcotest.(check int) "boundary survives" 4 (Store.pruned_below store);
  Alcotest.(check bool) "integrity" true (Store.check_integrity store);
  (* A broken replacement at the boundary is rejected and rolls back. *)
  let bogus =
    Block.create ~round:4 ~proposer:0 ~prev_hash:Block.genesis_hash (mk_txs 1)
  in
  (match Store.replace_suffix store ~from:4 [ bogus ] with
  | Error Store.Broken_link -> ()
  | _ -> Alcotest.fail "expected Broken_link at boundary");
  Alcotest.(check bool) "intact after rejected replace" true
    (Store.check_integrity store)

(* ---- Serial round-trips ---- *)

let check_same_chain msg original decoded =
  Alcotest.(check int) (msg ^ ": length") (Store.length original)
    (Store.length decoded);
  Alcotest.(check string) (msg ^ ": tip hash") (Store.last_hash original)
    (Store.last_hash decoded);
  Alcotest.(check int) (msg ^ ": pruned_below") (Store.pruned_below original)
    (Store.pruned_below decoded);
  Alcotest.(check bool) (msg ^ ": integrity") true (Store.check_integrity decoded);
  for r = 0 to Store.length original - 1 do
    match (Store.get original r, Store.get decoded r) with
    | Some a, Some b ->
        if not (String.equal (Block.hash a) (Block.hash b)) then
          Alcotest.failf "%s: hash mismatch at round %d" msg r
    | _ -> Alcotest.failf "%s: missing round %d" msg r
  done

let test_serial_chain_roundtrip_pruned () =
  let store = chain_of_blocks [ 0; 1; 2; 3; 0; 1; 2 ] in
  Store.prune store ~keep_from:3;
  let bytes = Serial.encode_chain store in
  (match Serial.decode_chain bytes with
  | Ok decoded -> check_same_chain "pruned chain" store decoded
  | Error e -> Alcotest.failf "decode: %s" e);
  (* Corrupt one byte anywhere past the header: decode must fail, not
     produce a silently different chain. *)
  let corrupt =
    let b = Bytes.of_string (Fl_wire.Sparse.to_string bytes) in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  match Serial.decode_chain (Fl_wire.Sparse.of_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted chain must not decode"

let test_serial_explorer_chain_roundtrip () =
  (* Round-trip chains produced by a real adversarial run (the same
     cluster machinery the schedule explorer drives), not hand-built
     ones: crash and cold-restart a node mid-run so the stores carry
     recovery-shaped history. *)
  let open Fl_fireledger in
  let config =
    { (Config.default ~n:4) with
      Config.batch_size = 20;
      tx_size = 64;
      initial_timeout = Fl_sim.Time.ms 20 }
  in
  let cluster = Cluster.create ~seed:11 ~config () in
  Cluster.start cluster;
  ignore
    (Fl_sim.Engine.schedule cluster.Cluster.engine ~delay:(Fl_sim.Time.ms 150)
       (fun () -> Cluster.crash cluster 2));
  ignore
    (Fl_sim.Engine.schedule cluster.Cluster.engine ~delay:(Fl_sim.Time.ms 300)
       (fun () -> Cluster.restart cluster 2));
  Cluster.run ~until:(Fl_sim.Time.s 1) cluster;
  Array.iteri
    (fun i inst ->
      let store = Instance.store inst in
      Alcotest.(check bool)
        (Printf.sprintf "node %d made progress" i)
        true
        (Store.length store > 5);
      match Serial.decode_chain (Serial.encode_chain store) with
      | Ok decoded ->
          check_same_chain (Printf.sprintf "node %d" i) store decoded
      | Error e -> Alcotest.failf "node %d decode: %s" i e)
    cluster.Cluster.instances

let prop_store_roundtrip =
  QCheck.Test.make ~name:"store: append then get returns the block"
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 15) (int_bound 3))
    (fun proposers ->
      let store = chain_of_blocks proposers in
      Store.check_integrity store
      && List.for_all
           (fun r ->
             match Store.get store r with
             | Some b -> b.Block.header.Header.round = r
             | None -> false)
           (List.init (List.length proposers) Fun.id))

let suite =
  [ Alcotest.test_case "block commitment" `Quick test_block_commitment;
    Alcotest.test_case "header hash distinct" `Quick test_header_hash_distinct;
    Alcotest.test_case "header derived fields" `Quick test_header_derived_fields;
    Alcotest.test_case "store append/links" `Quick test_store_append_and_links;
    Alcotest.test_case "store replace_suffix" `Quick test_store_replace_suffix;
    Alcotest.test_case "store replace rejects broken" `Quick
      test_store_replace_rejects_broken;
    Alcotest.test_case "store sub" `Quick test_store_sub;
    Alcotest.test_case "store prune then replace" `Quick
      test_store_prune_then_replace;
    Alcotest.test_case "store replace at prune boundary" `Quick
      test_store_replace_at_prune_boundary;
    Alcotest.test_case "serial roundtrip (pruned chain)" `Quick
      test_serial_chain_roundtrip_pruned;
    Alcotest.test_case "serial roundtrip (adversarial cluster chains)" `Quick
      test_serial_explorer_chain_roundtrip;
    Alcotest.test_case "mempool" `Quick test_mempool;
    Alcotest.test_case "tx digest" `Quick test_tx_digest;
    QCheck_alcotest.to_alcotest prop_store_roundtrip ]
