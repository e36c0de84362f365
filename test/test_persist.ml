(* Unit tests for the durable-persistence layer (lib/persist):
   WAL framing/replay/power-fail images, snapshot round-trips,
   the recovery procedure, the simulated disk model, and the per-node
   facade end-to-end (power fail → recover). *)

open Fl_sim
open Fl_chain
open Fl_persist

(* Build [count] well-linked blocks (rounds 0..count-1). *)
let mk_blocks count =
  let store = Test_chain.chain_of_blocks (List.init count (fun i -> i mod 4)) in
  Store.sub store ~from:0

let sig_of round = Printf.sprintf "sig-%d" round

(* Frames, media and images are pieces; [str] writes one out, [piece]
   takes raw bytes in. *)
module Sparse = Fl_wire.Sparse

let str = Sparse.to_string
let piece = Sparse.of_string

let record_eq a b =
  String.equal (str (Wal.encode_record a)) (str (Wal.encode_record b))

(* ---- WAL ---- *)

let test_wal_record_roundtrip () =
  let blocks = mk_blocks 2 in
  let records =
    [ Wal.Append { block = List.nth blocks 0; signature = sig_of 0 };
      Wal.Append { block = List.nth blocks 1; signature = sig_of 1 };
      Wal.Truncate { from = 1 };
      (* upto = -1 is a legal bare era watermark (pre-first-definite) *)
      Wal.Definite { upto = -1; era = 2 };
      Wal.Definite { upto = 7; era = 3 } ]
  in
  List.iter
    (fun r ->
      match Wal.decode_record (Wal.encode_record r) with
      | Ok r' ->
          Alcotest.(check bool) "record round-trips" true (record_eq r r')
      | Error e -> Alcotest.failf "decode: %s" e)
    records;
  (match Wal.decode_record (piece "\x09garbage") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must not decode");
  match Wal.decode_record (piece "") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty record must not decode"

let test_wal_replay_prefix () =
  let wal = Wal.create ~segment_bytes:(1 lsl 16) in
  let blocks = mk_blocks 5 in
  let records =
    List.mapi (fun i b -> Wal.Append { block = b; signature = sig_of i }) blocks
  in
  List.iter (fun r -> ignore (Wal.append wal r)) records;
  (* Only the first three frames are durable. *)
  Wal.mark_durable_upto wal 3;
  Alcotest.(check int) "pending" 2 (Wal.pending_frames wal);
  let clean = Wal.power_fail_image wal ~torn:false in
  let r = Wal.replay_media clean in
  Alcotest.(check int) "durable prefix survives" 3 (List.length r.Wal.records);
  Alcotest.(check bool) "no torn tail" false r.Wal.torn;
  List.iteri
    (fun i rec_ ->
      Alcotest.(check bool)
        (Printf.sprintf "record %d intact" i)
        true
        (record_eq rec_ (List.nth records i)))
    r.Wal.records;
  (* A torn tail: the same prefix plus a fragment of frame 4 — replay
     must detect and discard it. *)
  let torn = Wal.power_fail_image wal ~torn:true in
  Alcotest.(check bool) "torn image is longer" true
    (Sparse.length torn > Sparse.length clean);
  Alcotest.(check bool) "torn image extends the clean one" true
    (String.starts_with ~prefix:(str clean) (str torn));
  let r = Wal.replay_media torn in
  Alcotest.(check int) "torn fragment discarded" 3 (List.length r.Wal.records);
  Alcotest.(check bool) "torn detected" true r.Wal.torn

let test_wal_corrupt_frame () =
  let wal = Wal.create ~segment_bytes:(1 lsl 16) in
  List.iteri
    (fun i b -> ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of i })))
    (mk_blocks 3);
  Wal.mark_durable wal;
  let media = Wal.power_fail_image wal ~torn:false in
  (* Flip a payload byte in the middle: CRC must catch it and replay
     must stop at the corrupt frame, keeping the prefix. *)
  let b = Bytes.of_string (str media) in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  let r = Wal.replay_media (piece (Bytes.to_string b)) in
  Alcotest.(check bool) "corruption detected" true r.Wal.torn;
  Alcotest.(check bool) "prefix only" true (List.length r.Wal.records < 3)

let test_wal_segments_truncate () =
  (* Tiny segments: every append seals one. *)
  let wal = Wal.create ~segment_bytes:64 in
  let blocks = mk_blocks 6 in
  List.iteri
    (fun i b -> ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of i })))
    blocks;
  Wal.mark_durable wal;
  Alcotest.(check bool) "multiple segments" true (Wal.segments wal > 3);
  let before = Wal.total_frames wal in
  (* A snapshot at round 3 supersedes segments whose records all
     concern rounds <= 3. *)
  let dropped = Wal.truncate wal ~upto:3 in
  Alcotest.(check bool) "segments dropped" true (dropped > 0);
  Alcotest.(check bool) "frames reclaimed" true (Wal.total_frames wal < before);
  Alcotest.(check int) "truncated counter" dropped (Wal.truncated_segments wal);
  (* The survivors still replay cleanly and cover the suffix. *)
  let r = Wal.replay_media (Wal.power_fail_image wal ~torn:false) in
  Alcotest.(check bool) "suffix replays" false r.Wal.torn;
  List.iter
    (fun rec_ ->
      Alcotest.(check bool) "only suffix rounds survive" true
        (Wal.round_of rec_ > 3))
    r.Wal.records

(* Torn tail exactly on a segment boundary: with [segment_bytes = 1]
   every Append frame seals its own segment, so the durable watermark
   falls exactly on a sealed-segment boundary and the torn fragment is
   the first frame of a fresh segment — the cursor position a sloppy
   replay loop trips over. *)
let test_wal_torn_on_segment_boundary () =
  let blocks = mk_blocks 5 in
  let wal = Wal.create ~segment_bytes:1 in
  List.iteri
    (fun i b ->
      ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of i })))
    blocks;
  Wal.mark_durable_upto wal 4;
  Alcotest.(check int) "one segment per frame" 6 (Wal.segments wal);
  let media = Wal.power_fail_image wal ~torn:true in
  let r = Wal.replay_media media in
  Alcotest.(check bool) "torn detected" true r.Wal.torn;
  Alcotest.(check int) "durable prefix only" 4 (List.length r.Wal.records);
  List.iteri
    (fun i rec_ -> Alcotest.(check int) "round order" i (Wal.round_of rec_))
    r.Wal.records

(* ---- Snapshot ---- *)

let test_snapshot_roundtrip () =
  let store = Test_chain.chain_of_blocks [ 0; 1; 2; 3; 0; 1 ] in
  Store.prune store ~keep_from:2;
  let snap =
    match
      Snapshot.build ~store ~upto:4 ~era:2 ~app:"app-payload" ~app_hash:"abcd"
    with
    | Some s -> s
    | None -> Alcotest.fail "build failed"
  in
  (match Snapshot.decode (piece (Snapshot.encode snap)) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok s ->
      Alcotest.(check int) "upto" 4 s.Snapshot.upto;
      Alcotest.(check int) "era" 2 s.Snapshot.era;
      Alcotest.(check string) "app" "app-payload" s.Snapshot.app;
      Alcotest.(check string) "app hash" "abcd" s.Snapshot.app_hash;
      match Snapshot.restore_chain s with
      | Error e -> Alcotest.failf "restore: %s" e
      | Ok prefix ->
          Alcotest.(check int) "prefix length" 5 (Store.length prefix);
          Alcotest.(check int) "prune boundary carried" 2
            (Store.pruned_below prefix);
          Alcotest.(check bool) "prefix integrity" true
            (Store.check_integrity prefix);
          let tip_src =
            match Store.get store 4 with Some b -> Block.hash b | None -> ""
          in
          Alcotest.(check string) "tip hash" tip_src (Store.last_hash prefix));
  (* Corruption anywhere must be rejected. *)
  let enc = Snapshot.encode snap in
  let b = Bytes.of_string enc in
  Bytes.set b (Bytes.length b - 3)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 3)) lxor 0x10));
  (match Snapshot.decode (piece (Bytes.to_string b)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot must not decode");
  match Snapshot.decode (piece (String.sub enc 0 (String.length enc - 5))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated snapshot must not decode"

(* The state-transfer donor streams a snapshot as fixed-size chunks; a
   receiver that loses any suffix of the final chunk must get a decode
   error — checked for every possible cut, not just lucky ones. *)
let test_snapshot_truncated_chunk_fails_closed () =
  let store = Test_chain.chain_of_blocks [ 0; 1; 2; 3 ] in
  let snap =
    match Snapshot.build ~store ~upto:3 ~era:1 ~app:"state" ~app_hash:"h" with
    | Some s -> Snapshot.encode s
    | None -> Alcotest.fail "snapshot build"
  in
  let chunk = 64 in
  let len = String.length snap in
  let total = (len + chunk - 1) / chunk in
  Alcotest.(check bool) "multiple chunks" true (total > 1);
  let last_off = (total - 1) * chunk in
  for keep = 0 to len - last_off - 1 do
    match Snapshot.decode (piece (String.sub snap 0 (last_off + keep))) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated final chunk (keep=%d) decoded" keep
  done;
  (* The intact reassembly still decodes. *)
  match Snapshot.decode (piece snap) with
  | Ok s -> Alcotest.(check int) "upto" 3 s.Snapshot.upto
  | Error e -> Alcotest.failf "intact decode: %s" e

(* Incremental sealing must produce exactly the bytes of a whole-chain
   encode. The reference is the format spelled out by hand: the store
   truncated to [upto] and pruned to its boundary, through
   [Serial.encode_chain], wrapped in the FLSNAP1 fields. *)
let reference_image store ~upto ~era ~app ~app_hash =
  let prefix = Store.create () in
  for r = 0 to upto do
    match Store.get store r with
    | Some b -> (
        match Store.append ~check_body:false prefix b with
        | Ok () -> ()
        | Error e -> Alcotest.failf "reference copy: %a" Store.pp_error e)
    | None -> Alcotest.failf "reference copy: round %d missing" r
  done;
  Store.prune prefix ~keep_from:(min (Store.pruned_below store) (upto + 1));
  let open Fl_wire in
  str @@ Envelope.seal ~tag:0 (fun w ->
      Codec.Writer.raw w "FLSNAP1\x01";
      Codec.Writer.varint w upto;
      Codec.Writer.varint w era;
      Codec.Writer.bytes w app;
      Codec.Writer.bytes w app_hash;
      Codec.Writer.bytes w (Sparse.to_string (Serial.encode_chain prefix)))

(* Extend [store] to [len] rounds; [salt] picks the transactions, so
   two salts give two different chains. One synthetic and one
   real-payload transaction per block exercise both tx encodings.
   [log] sees each appended block, as a node's WAL would. *)
let grow ?(log = ignore) ~salt store len =
  while Store.length store < len do
    let round = Store.length store in
    let txs =
      [| Tx.create ~id:((salt * 1_000_000) + round) ~size:24;
         Tx.create_payload
           ~id:((salt * 1_000_000) + round + 500_000)
           (Printf.sprintf "s%d-r%d" salt round) |]
    in
    let b =
      Block.create ~round ~proposer:(round mod 4)
        ~prev_hash:(Store.last_hash store) txs
    in
    (match Store.append store b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "grow %d: %a" round Store.pp_error e);
    log b
  done

(* Replace rounds [from..] with a differently salted suffix of the
   same length. *)
let rewrite ?log ~salt store ~from =
  let len = Store.length store in
  (match Store.replace_suffix store ~from [] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "truncate: %a" Store.pp_error e);
  grow ?log ~salt store len

let pieces_contents pieces =
  String.concat "" (List.map Fl_wire.Sparse.to_string pieces)

(* The incremental-sealing scenario. Each step seals at the next
   64-round mark after an optional chain change and states how many
   segments must be built afresh; all other segments must be the
   previous image's, physically. With [wal], a log is fed the same
   appends (and truncated after each seal, as a node does): every
   image must still be the reference bytes, rounds the log holds must
   come from its frames, and none at or below a truncation may. *)
let incremental_scenario ~wal =
  let interval = 64 in
  let store = ref (Store.create ()) in
  let prev = ref None in
  let log =
    Option.map
      (fun wal b ->
        ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of 0 })))
      wal
  in
  let steps =
    [ (1, `Extend, 1);
      (2, `Extend, 1);
      (3, `Extend, 1);
      (4, `Extend, 1);
      (5, `Extend, 1);
      (* prune boundary lands inside [64..127]: it and [0..63] change *)
      (6, `Prune 100, 3);
      (7, `Extend, 1);
      (* replace_suffix inside the sealed [384..447] *)
      (8, `Rewrite 420, 2);
      (9, `Extend, 1);
      (* boundary moves from inside [64..127] to inside [256..319] *)
      (10, `Prune 300, 5);
      (* a replace_suffix below the prune boundary re-appends bodies
         the image must still drop *)
      (11, `Rewrite 290, 7);
      (12, `Extend, 1);
      (* power fail + recover: same content, new values — all kept *)
      (13, `Recover, 1);
      (14, `Extend, 1);
      (* a different chain of equal length (pruned alike, as
         [Ledger.adopt_chain] leaves it): nothing kept *)
      (15, `Adopt, 15);
      (16, `Extend, 1);
      (* from inside [256..319] to inside [960..1023] *)
      (17, `Prune 1000, 13);
      (18, `Extend, 1) ]
  in
  List.iter
    (fun (k, change, fresh_expected) ->
      let upto = (k * interval) - 1 in
      let chain_len = Store.length !store in
      (match change with
      | `Extend -> ()
      | `Prune keep_from -> Store.prune !store ~keep_from
      | `Rewrite from ->
          Option.iter
            (fun wal -> ignore (Wal.append wal (Wal.Truncate { from })))
            wal;
          rewrite ?log ~salt:k !store ~from
      | `Recover -> (
          let img =
            match !prev with Some i -> Snapshot.piece i | None -> assert false
          in
          (* a restarted node's log holds only replayed frames, and
             no block encoding *)
          Option.iter
            (fun wal ->
              Wal.reset_to_frames wal [];
              Store.iter !store (fun b ->
                  if Wal.encoded_block wal b <> None then
                    Alcotest.failf "step %d: hit after reset" k))
            wal;
          match Result.bind (Snapshot.decode img) Snapshot.restore_chain with
          | Error e -> Alcotest.failf "recover: %s" e
          | Ok recovered ->
              for r = Store.length recovered to chain_len - 1 do
                match Store.get !store r with
                | Some b -> ignore (Store.append recovered b)
                | None -> ()
              done;
              store := recovered)
      | `Adopt ->
          let other = Store.create () in
          grow ?log ~salt:k other chain_len;
          Store.prune other ~keep_from:(Store.pruned_below !store);
          store := other);
      grow ?log ~salt:0 !store (upto + 2);
      let era = k and app = Printf.sprintf "app-%d" k in
      let app_hash = Fl_crypto.Sha256.digest app in
      let image =
        match
          Snapshot.seal ~prev:!prev ~wal ~store:!store ~upto ~era ~app
            ~app_hash
        with
        | Some i -> i
        | None -> Alcotest.failf "step %d: seal failed" k
      in
      let got = Snapshot.encode image in
      Alcotest.(check int)
        (Printf.sprintf "step %d: length" k)
        (String.length got) (Snapshot.length image);
      if
        not
          (String.equal got
             (reference_image !store ~upto ~era ~app ~app_hash))
      then Alcotest.failf "step %d: image differs from the whole-chain encode" k;
      let old =
        match !prev with Some i -> Snapshot.segments i | None -> []
      in
      let fresh = ref 0 in
      List.iter
        (fun (first, last, pieces) ->
          match
            List.find_opt (fun (f, l, _) -> f = first && l = last) old
          with
          | Some (_, _, kept) when kept == pieces -> ()
          | Some (_, _, kept)
            when String.equal (pieces_contents kept) (pieces_contents pieces)
            ->
              Alcotest.failf "step %d: unchanged [%d..%d] re-encoded" k first
                last
          | _ ->
              incr fresh;
              (* every round the log holds is a piece of its frame;
                 after a plain extension that is every new round *)
              Option.iter
                (fun wal ->
                  let from_wal = ref 0 in
                  for r = first to last do
                    match
                      Option.bind (Store.get !store r) (Wal.encoded_block wal)
                    with
                    | Some (bytes, _)
                      when r >= Store.pruned_below !store ->
                        if not (List.memq bytes pieces) then
                          Alcotest.failf "step %d: round %d re-encoded" k r;
                        incr from_wal
                    | Some _ | None -> ()
                  done;
                  if change = `Extend then
                    Alcotest.(check int)
                      (Printf.sprintf "step %d: [%d..%d] from the WAL" k
                         first last)
                      (last - first + 1) !from_wal)
                wal)
        (Snapshot.segments image);
      Alcotest.(check int)
        (Printf.sprintf "step %d: segments encoded" k)
        fresh_expected !fresh;
      Option.iter
        (fun wal ->
          ignore (Wal.truncate wal ~upto);
          for r = 0 to upto do
            match Option.bind (Store.get !store r) (Wal.encoded_block wal) with
            | Some _ -> Alcotest.failf "step %d: round %d hit after truncate" k r
            | None -> ()
          done)
        wal;
      prev := Some image)
    steps

let test_snapshot_incremental_equals_whole () = incremental_scenario ~wal:None

let test_snapshot_incremental_from_wal () =
  incremental_scenario ~wal:(Some (Wal.create ~segment_bytes:(1 lsl 16)))

(* The log holds round 5's block, the store another value there: a
   structurally equal copy, then a different block. Both must miss —
   no piece from round 5's frame — and the image must be the store's
   own bytes. *)
let test_snapshot_other_value_misses () =
  let store = Store.create () in
  let wal = Wal.create ~segment_bytes:(1 lsl 16) in
  let log b =
    ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of 0 }))
  in
  grow ~log ~salt:1 store 10;
  let logged =
    match Store.get store 5 with Some b -> b | None -> assert false
  in
  let check what ~hits =
    match
      Snapshot.seal ~prev:None ~wal:(Some wal) ~store ~upto:8 ~era:0 ~app:""
        ~app_hash:""
    with
    | None -> Alcotest.fail "seal failed"
    | Some image ->
        if
          not
            (String.equal (Snapshot.encode image)
               (reference_image store ~upto:8 ~era:0 ~app:"" ~app_hash:""))
        then Alcotest.failf "%s: image differs from the whole-chain encode" what;
        let pieces =
          List.concat_map (fun (_, _, p) -> p) (Snapshot.segments image)
        in
        (match Wal.encoded_block wal logged with
        | Some (bytes, _) ->
            Alcotest.(check bool) (what ^ ": round 5 not from the WAL") false
              (List.memq bytes pieces)
        | None -> Alcotest.fail "the logged value must still hit");
        (* rounds that still hold the logged values come from the log *)
        List.iter
          (fun r ->
            match Option.bind (Store.get store r) (Wal.encoded_block wal) with
            | Some (bytes, _) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: round %d from the WAL" what r)
                  true (List.memq bytes pieces)
            | None -> Alcotest.failf "%s: round %d missed" what r)
          hits
  in
  let replace_5 b =
    let rest = Store.sub store ~from:6 in
    match Store.replace_suffix store ~from:5 (b :: rest) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "replace: %a" Store.pp_error e
  in
  replace_5 { logged with Block.txs = Array.copy logged.Block.txs };
  check "equal copy" ~hits:[ 0; 4; 6; 8 ];
  (* a different block at round 5 (the rest of the chain re-linked) *)
  (match Store.replace_suffix store ~from:5 [] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "truncate: %a" Store.pp_error e);
  grow ~salt:2 store 10;
  check "different block" ~hits:[ 0; 4 ]

(* ---- Recovery ---- *)

let wal_media_of records =
  let wal = Wal.create ~segment_bytes:(1 lsl 16) in
  List.iter (fun r -> ignore (Wal.append wal r)) records;
  Wal.mark_durable wal;
  Wal.power_fail_image wal ~torn:false

let test_recovery_snapshot_plus_suffix () =
  let blocks = mk_blocks 8 in
  let store = Test_chain.chain_of_blocks (List.init 8 (fun i -> i mod 4)) in
  let snap =
    match Snapshot.build ~store ~upto:4 ~era:1 ~app:"" ~app_hash:"" with
    | Some s -> Snapshot.piece s
    | None -> Alcotest.fail "snapshot build"
  in
  let suffix =
    List.filteri (fun i _ -> i > 4) blocks
    |> List.map (fun b ->
           Wal.Append
             { block = b;
               signature = sig_of b.Block.header.Header.round })
  in
  let media = wal_media_of (suffix @ [ Wal.Definite { upto = 5; era = 1 } ]) in
  let r = Recovery.run ~snapshot_media:(Some snap) ~wal_media:media ~app:None in
  Alcotest.(check bool) "from snapshot" true r.Recovery.r_from_snapshot;
  Alcotest.(check bool) "not torn" false r.Recovery.r_torn;
  Alcotest.(check int) "full chain rebuilt" 8 (Store.length r.Recovery.r_store);
  Alcotest.(check int) "definite watermark" 5 r.Recovery.r_definite;
  Alcotest.(check bool) "store integrity" true
    (Store.check_integrity r.Recovery.r_store);
  Alcotest.(check (list int)) "sigs for WAL suffix only" [ 5; 6; 7 ]
    (List.map fst r.Recovery.r_sigs);
  List.iter
    (fun (round, s) -> Alcotest.(check string) "sig content" (sig_of round) s)
    r.Recovery.r_sigs

let test_recovery_truncate_replay () =
  (* WAL: append 0..4, recovery truncates from 3, appends new 3',4'. *)
  let store = Test_chain.chain_of_blocks [ 0; 1; 2; 3; 0 ] in
  let old_blocks = Store.sub store ~from:0 in
  let prev = match Store.get store 2 with Some b -> Block.hash b | None -> "" in
  let b3 =
    Block.create ~round:3 ~proposer:1 ~prev_hash:prev
      (Test_chain.mk_txs ~base:300 2)
  in
  let b4 =
    Block.create ~round:4 ~proposer:2 ~prev_hash:(Block.hash b3)
      (Test_chain.mk_txs ~base:400 2)
  in
  let records =
    List.map
      (fun b ->
        Wal.Append
          { block = b; signature = sig_of b.Block.header.Header.round })
      old_blocks
    @ [ Wal.Truncate { from = 3 };
        Wal.Append { block = b3; signature = "sig-3b" };
        Wal.Append { block = b4; signature = "sig-4b" };
        Wal.Definite { upto = 2; era = 0 } ]
  in
  let r =
    Recovery.run ~snapshot_media:None ~wal_media:(wal_media_of records)
      ~app:None
  in
  Alcotest.(check int) "length" 5 (Store.length r.Recovery.r_store);
  Alcotest.(check bool) "integrity" true
    (Store.check_integrity r.Recovery.r_store);
  (match Store.get r.Recovery.r_store 3 with
  | Some b ->
      Alcotest.(check string) "replacement adopted" (Block.hash b3)
        (Block.hash b)
  | None -> Alcotest.fail "missing round 3");
  (* the replaced rounds carry the replacement signatures *)
  Alcotest.(check string) "sig replaced" "sig-3b"
    (List.assoc 3 r.Recovery.r_sigs)

let test_recovery_nothing_durable () =
  let r = Recovery.run ~snapshot_media:None ~wal_media:(piece "") ~app:None in
  Alcotest.(check int) "empty store" 0 (Store.length r.Recovery.r_store);
  Alcotest.(check int) "no definite" (-1) r.Recovery.r_definite;
  Alcotest.(check bool) "not from snapshot" false r.Recovery.r_from_snapshot

(* ---- Disk model ---- *)

let test_disk_model () =
  let e = Engine.create () in
  let d = Disk.create e ~profile:Disk.nvme () in
  let f1 = Disk.write d ~bytes:4096 in
  let f2 = Disk.write d ~bytes:4096 in
  Alcotest.(check bool) "writes serialize" true (f2 > f1);
  Alcotest.(check int) "bytes accounted" 8192 (Disk.bytes_written d);
  (* fsync from a fiber blocks past the queue drain and any stall. *)
  Disk.set_stall d ~until:(Time.ms 50);
  let done_at = ref 0 in
  Fiber.spawn e (fun () ->
      Disk.fsync d;
      done_at := Engine.now e);
  Engine.run e;
  Alcotest.(check bool)
    (Printf.sprintf "stall delays fsync (done at %d)" !done_at)
    true
    (!done_at >= Time.ms 50);
  Alcotest.(check int) "fsync counted" 1 (Disk.fsyncs d);
  Alcotest.(check bool) "not lost" false (Disk.lost d);
  Disk.lose d;
  Alcotest.(check bool) "lost" true (Disk.lost d)

(* ---- Node facade end-to-end ---- *)

let node_config =
  { Node.default_config with
    Node.sync = Node.Never;
    (* manual sync in these tests *)
    snapshot_interval = 0 }

let test_node_power_fail_recover () =
  let e = Engine.create () in
  let n = Node.create e ~config:node_config () in
  let blocks = mk_blocks 6 in
  Fiber.spawn e (fun () ->
      (* 0..3 logged and synced; 4..5 logged but never durable *)
      List.iteri
        (fun i b ->
          if i < 4 then
            Node.log_append n ~block:b
              ~signature:(sig_of b.Block.header.Header.round))
        blocks;
      Node.log_definite n ~upto:1 ~era:0 (List.nth blocks 1);
      Node.sync n;
      List.iteri
        (fun i b ->
          if i >= 4 then
            Node.log_append n ~block:b
              ~signature:(sig_of b.Block.header.Header.round))
        blocks);
  Engine.run e;
  (* The oracle: a twin log fed the same durable records, independent
     of the recovery under test. *)
  let twin = Wal.create ~segment_bytes:node_config.Node.segment_bytes in
  List.iteri
    (fun i b ->
      if i < 4 then
        ignore
          (Wal.append twin
             (Wal.Append
                { block = b; signature = sig_of b.Block.header.Header.round })))
    blocks;
  ignore (Wal.append twin (Wal.Definite { upto = 1; era = 0 }));
  Wal.mark_durable twin;
  let valid_prefix = Wal.power_fail_image twin ~torn:false in
  let frames_bytes r =
    String.concat ""
      (List.map (fun (fr, _) -> Fl_wire.Sparse.to_string fr) r.Recovery.r_frames)
  in
  Node.power_fail n ~torn:true;
  Alcotest.(check bool) "dead after power fail" false (Node.live n);
  Alcotest.(check bool) "torn fragment past the valid prefix" true
    (Node.media_bytes n > Sparse.length valid_prefix);
  (match Node.recover n with
  | None -> Alcotest.fail "expected recovered state"
  | Some r ->
      Alcotest.(check int) "durable prefix only" 4
        (Store.length r.Recovery.r_store);
      Alcotest.(check int) "definite watermark" 1 r.Recovery.r_definite;
      Alcotest.(check bool) "torn tail discarded" true r.Recovery.r_torn;
      Alcotest.(check string) "recovered frames = valid media prefix"
        (str valid_prefix) (frames_bytes r));
  Alcotest.(check bool) "live again" true (Node.live n);
  let st = Node.stats n in
  Alcotest.(check int) "one recovery" 1 st.Node.s_recovers;
  Alcotest.(check int) "one torn discard" 1 st.Node.s_torn_discards;
  Alcotest.(check bool) "records replayed" true (st.Node.s_replayed >= 5);
  (* the live log restarts from exactly the frames read off the media:
     a clean power fail leaves those bytes, and they recover the same
     state again *)
  Node.power_fail n ~torn:false;
  Alcotest.(check int) "rebuilt WAL = valid media prefix"
    (Sparse.length valid_prefix) (Node.media_bytes n);
  match Node.recover n with
  | None -> Alcotest.fail "expected a second recovery"
  | Some r' ->
      Alcotest.(check string) "rebuilt WAL frames = valid media prefix"
        (str valid_prefix) (frames_bytes r');
      Alcotest.(check int) "durable prefix again" 4
        (Store.length r'.Recovery.r_store);
      Alcotest.(check int) "definite watermark again" 1
        r'.Recovery.r_definite;
      Alcotest.(check bool) "nothing torn" false r'.Recovery.r_torn

let test_node_disk_loss () =
  let e = Engine.create () in
  let n = Node.create e ~config:node_config () in
  Fiber.spawn e (fun () ->
      List.iter
        (fun b ->
          Node.log_append n ~block:b
            ~signature:(sig_of b.Block.header.Header.round))
        (mk_blocks 3);
      Node.sync n);
  Engine.run e;
  Node.lose_media n;
  Alcotest.(check int) "nothing on media" 0 (Node.media_bytes n);
  (match Node.recover n with
  | None -> () (* cold start: caller catches up over the network *)
  | Some _ -> Alcotest.fail "disk loss must leave nothing to recover");
  Alcotest.(check bool) "live again" true (Node.live n)

let test_node_snapshot_truncates_wal () =
  let e = Engine.create () in
  let store = Test_chain.chain_of_blocks (List.init 12 (fun i -> i mod 4)) in
  let config =
    { Node.default_config with
      Node.sync = Node.Never;
      segment_bytes = 128;
      (* force many sealed segments *)
      snapshot_interval = 4 }
  in
  let n = Node.create e ~config () in
  Node.attach_chain n (fun () -> (store, 8, 0));
  Fiber.spawn e (fun () ->
      Store.iter store (fun b ->
          Node.log_append n ~block:b
            ~signature:(sig_of b.Block.header.Header.round));
      for upto = 0 to 8 do
        match Store.get store upto with
        | Some b -> Node.log_definite n ~upto ~era:0 b
        | None -> ()
      done;
      Node.sync n);
  Engine.run e;
  let st = Node.stats n in
  Alcotest.(check bool)
    (Printf.sprintf "snapshots taken (%d)" st.Node.s_snapshots)
    true (st.Node.s_snapshots >= 1);
  (* Crash and recover: the snapshot is the base, the WAL suffix tops
     it up to the full chain. *)
  Node.power_fail n ~torn:false;
  match Node.recover n with
  | None -> Alcotest.fail "expected durable state"
  | Some r ->
      Alcotest.(check bool) "recovered from snapshot" true
        r.Recovery.r_from_snapshot;
      Alcotest.(check int) "full chain back" 12
        (Store.length r.Recovery.r_store);
      Alcotest.(check int) "definite watermark" 8 r.Recovery.r_definite;
      Alcotest.(check bool) "integrity" true
        (Store.check_integrity r.Recovery.r_store)

let test_node_group_commit_flusher () =
  let e = Engine.create () in
  let config =
    { node_config with Node.sync = Node.Group_commit (Time.ms 2) }
  in
  let n = Node.create e ~config () in
  Node.maybe_start_flusher n;
  Fiber.spawn e (fun () ->
      List.iter
        (fun b ->
          Node.log_append n ~block:b
            ~signature:(sig_of b.Block.header.Header.round))
        (mk_blocks 4));
  (* Run well past a few flush intervals; the group-commit flusher
     must have made everything durable without an explicit sync. *)
  Engine.run ~until:(Time.ms 20) e;
  Node.power_fail n ~torn:false;
  match Node.recover n with
  | None -> Alcotest.fail "expected durable state"
  | Some r ->
      Alcotest.(check int) "group commit flushed all" 4
        (Store.length r.Recovery.r_store)

(* ---- zero runs: compact frames and images ---- *)

(* A chain whose round [r] holds the transactions [shapes.(r)] names:
   (size, payload?) — a synthetic one is zero padding on the media, a
   payload one real bytes. *)
let mixed_chain shapes =
  let store = Store.create () in
  List.iteri
    (fun round txs ->
      let txs =
        Array.of_list
          (List.mapi
             (fun k (size, payload) ->
               let id = (round * 100) + k in
               if payload then
                 Tx.create_payload ~id
                   (String.init size (fun i -> Char.chr ((id + i) land 0xff)))
               else Tx.create ~id ~size)
             txs)
      in
      let b =
        Block.create ~round ~proposer:(round mod 4)
          ~prev_hash:(Store.last_hash store) txs
      in
      match Store.append store b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "mixed chain: %a" Store.pp_error e)
    shapes;
  store

(* One WAL frame spelled out: [u32 length | envelope] with the record's
   body written by the plain encoders and sealed densely. *)
let plain_frame ~tag write =
  let open Fl_wire in
  let env = Dense.seal ~tag write in
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w (String.length env);
  Codec.Writer.raw w env;
  Codec.Writer.contents w

let gen_shapes =
  QCheck.Gen.(
    list_size (1 -- 5)
      (list_size (0 -- 6) (pair (oneofl [ 0; 1; 512; 4096 ]) bool)))

(* Every round is appended (with a watermark after it) and the store
   is then pruned at [prune]: sealed with the log, the image holds
   pieces of its frames and header-only rounds encoded by the sealer;
   sealed without it, every round is encoded. *)
let prop_zero_runs_materialise =
  QCheck.Test.make ~name:"persist: WAL media and image = plain encoding"
    ~count:60
    (QCheck.make QCheck.Gen.(pair gen_shapes (0 -- 5)))
    (fun (shapes, prune) ->
      let open Fl_wire in
      let store = mixed_chain shapes in
      let wal = Wal.create ~segment_bytes:4096 in
      let expected = Buffer.create 4096 in
      Store.iter store (fun b ->
          let r = b.Block.header.Header.round in
          ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of r }));
          Buffer.add_string expected
            (plain_frame ~tag:1 (fun w ->
                 Codec.Writer.bytes w (sig_of r);
                 Serial.encode_block w b));
          ignore (Wal.append wal (Wal.Definite { upto = r; era = 1 }));
          Buffer.add_string expected
            (plain_frame ~tag:3 (fun w ->
                 Codec.Writer.varint w (r + 1);
                 Codec.Writer.varint w 1)));
      Wal.mark_durable wal;
      let media = Wal.power_fail_image wal ~torn:false in
      let upto = Store.length store - 1 in
      Store.prune store ~keep_from:(min prune upto);
      let image wal =
        match
          Snapshot.seal ~prev:None ~wal ~store ~upto ~era:1 ~app:"a"
            ~app_hash:"h"
        with
        | Some i -> Snapshot.encode i
        | None -> ""
      in
      let reference =
        reference_image store ~upto ~era:1 ~app:"a" ~app_hash:"h"
      in
      String.equal (str media) (Buffer.contents expected)
      && String.equal (image (Some wal)) reference
      && String.equal (image None) reference)

(* A restarted node's log is the replayed frames, compacted again: its
   next power-fail image must be the very media it came from, torn
   tail and all. *)
let test_wal_replayed_frames_materialise () =
  let store =
    mixed_chain
      [ [ (512, false); (1, true); (4096, false) ];
        [ (0, false); (512, true) ];
        [ (4096, false); (512, false); (0, true) ];
        [ (4096, false) ] ]
  in
  let wal = Wal.create ~segment_bytes:(1 lsl 16) in
  Store.iter store (fun b ->
      let r = b.Block.header.Header.round in
      ignore (Wal.append wal (Wal.Append { block = b; signature = sig_of r })));
  ignore (Wal.append wal (Wal.Truncate { from = 2 }));
  ignore (Wal.append wal (Wal.Definite { upto = 1; era = 0 }));
  Wal.mark_durable_upto wal 5;
  let media = Wal.power_fail_image wal ~torn:false in
  let r = Wal.replay_media (Wal.power_fail_image wal ~torn:true) in
  let media_bytes = str media in
  Alcotest.(check bool) "torn tail seen" true r.Wal.torn;
  Alcotest.(check int) "durable records" 5 (List.length r.Wal.records);
  Alcotest.(check string) "frames = media" media_bytes
    (String.concat ""
       (List.map (fun (fr, _) -> Fl_wire.Sparse.to_string fr) r.Wal.frames));
  Alcotest.(check bool) "frames kept compact" true
    (Obj.reachable_words (Obj.repr r.Wal.frames) * (Sys.word_size / 8)
    < String.length media_bytes / 4);
  let again = Wal.create ~segment_bytes:(1 lsl 16) in
  Wal.reset_to_frames again r.Wal.frames;
  Alcotest.(check string) "rebuilt log's image = media" media_bytes
    (str (Wal.power_fail_image again ~torn:false));
  let r' = Wal.replay_media media in
  Alcotest.(check bool) "clean replay" false r'.Wal.torn;
  List.iter2
    (fun a b -> Alcotest.(check bool) "same records" true (record_eq a b))
    r.Wal.records r'.Wal.records

(* 300 Appends of 100 synthetic 512-byte transactions stand for about
   15.5 MB of frames, and the snapshots every 64 rounds for over 13 MB
   of image: about 2 M words, had the padding been bytes. The node
   must hold its log and sealed image in an eighth of that. *)
let test_node_heap_bounded () =
  let rounds = 300 in
  let store = Store.create () in
  for round = 0 to rounds - 1 do
    let txs =
      Array.init 100 (fun i -> Tx.create ~id:((round * 100) + i) ~size:512)
    in
    let b =
      Block.create ~round ~proposer:(round mod 4)
        ~prev_hash:(Store.last_hash store) txs
    in
    match Store.append store b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "heap chain: %a" Store.pp_error e
  done;
  let e = Engine.create () in
  let n =
    Node.create e ~config:{ Node.default_config with Node.sync = Node.Never } ()
  in
  (* the chain is the instance's, not the node's: drop it before
     weighing the node *)
  let chain = ref (Some store) in
  Node.attach_chain n (fun () ->
      match !chain with
      | Some s -> (s, Store.length s - 1, 0)
      | None -> Alcotest.fail "chain detached");
  Fiber.spawn e (fun () ->
      Store.iter store (fun b ->
          let r = b.Block.header.Header.round in
          Node.log_append n ~block:b ~signature:(sig_of r);
          Node.log_definite n ~upto:r ~era:0 b);
      Node.sync n);
  Engine.run e;
  chain := None;
  Alcotest.(check int) "four snapshots" 4 (Node.stats n).Node.s_snapshots;
  let words = Obj.reachable_words (Obj.repr n) in
  let bound = 250_000 in
  if words > bound then
    Alcotest.failf "node holds %d words, bound %d" words bound;
  Node.power_fail n ~torn:false;
  Alcotest.(check bool) "media stands for the full bytes" true
    (Node.media_bytes n > 256 * 100 * (13 + 512))

let suite =
  [ Alcotest.test_case "wal record roundtrip" `Quick test_wal_record_roundtrip;
    Alcotest.test_case "wal replay durable prefix" `Quick test_wal_replay_prefix;
    Alcotest.test_case "wal corrupt frame" `Quick test_wal_corrupt_frame;
    Alcotest.test_case "wal torn tail on segment boundary" `Quick
      test_wal_torn_on_segment_boundary;
    Alcotest.test_case "snapshot truncated final chunk" `Quick
      test_snapshot_truncated_chunk_fails_closed;
    Alcotest.test_case "wal segments + truncate" `Quick
      test_wal_segments_truncate;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot incremental = whole-chain encode" `Quick
      test_snapshot_incremental_equals_whole;
    Alcotest.test_case "snapshot incremental from wal = whole-chain" `Quick
      test_snapshot_incremental_from_wal;
    Alcotest.test_case "snapshot: another block value misses the wal" `Quick
      test_snapshot_other_value_misses;
    Alcotest.test_case "recovery snapshot+suffix" `Quick
      test_recovery_snapshot_plus_suffix;
    Alcotest.test_case "recovery truncate replay" `Quick
      test_recovery_truncate_replay;
    Alcotest.test_case "recovery nothing durable" `Quick
      test_recovery_nothing_durable;
    Alcotest.test_case "disk model" `Quick test_disk_model;
    Alcotest.test_case "node power fail + recover" `Quick
      test_node_power_fail_recover;
    Alcotest.test_case "node disk loss" `Quick test_node_disk_loss;
    Alcotest.test_case "node snapshot truncates wal" `Quick
      test_node_snapshot_truncates_wal;
    Alcotest.test_case "node group commit flusher" `Quick
      test_node_group_commit_flusher;
    QCheck_alcotest.to_alcotest prop_zero_runs_materialise;
    Alcotest.test_case "wal replayed frames materialise" `Quick
      test_wal_replayed_frames_materialise;
    Alcotest.test_case "node heap bounded under synthetic padding" `Quick
      test_node_heap_bounded ]
