(* Property tests for every wire codec — round-trips ([decode (encode
   m) = m]) and malformed-input robustness (arbitrary or mutated bytes
   must yield [None]/[Error], raising nothing past the codec layer) —
   plus the cross-layer wire-truth check: the NIC charges exactly
   [Sparse.length (Msg.encode m)] for a message, padding included.
   Frames are pieces whose synthetic padding is a zero run; the string
   tests below work on their written-out bytes ([enc]/[dec]).

   Complements test_wire.ml (scalar-level codec properties) one layer
   up: these are the protocol-struct codecs that ride the envelope. *)

open Fl_chain
open Fl_wire
module Msg = Fl_fireledger.Msg
module Types = Fl_fireledger.Types

let registry = Fl_crypto.Signature.create_registry ~seed:"codecs" ~n:4
let enc m = Sparse.to_string (Msg.encode m)
let dec s = Msg.decode (Sparse.of_string s)

(* ---------- generators ---------- *)

let gen_hash =
  QCheck.Gen.(
    let+ s = string_size (int_range 0 8) in
    Fl_crypto.Sha256.digest s)

let gen_tx =
  QCheck.Gen.(
    let* id = int_range 0 1_000_000 in
    let* synthetic = bool in
    if synthetic then
      let+ size =
        frequency
          [ (4, int_range 0 300); (1, oneofl [ 0; 1; 511; 512; 513; 4096 ]) ]
      in
      Tx.create ~id ~size
    else
      let+ payload = string_size (int_range 0 64) in
      Tx.create_payload ~id payload)

let gen_txs = QCheck.Gen.(array_size (int_range 0 5) gen_tx)

let gen_block =
  QCheck.Gen.(
    let* round = int_range 0 10_000 in
    let* proposer = int_range 0 3 in
    let* prev_hash = gen_hash in
    let+ txs = gen_txs in
    Block.create ~round ~proposer ~prev_hash txs)

let gen_signed_header =
  QCheck.Gen.(
    let* b = gen_block in
    let+ signer = int_range 0 3 in
    Types.sign_header registry ~signer b.Block.header)

let gen_proposal =
  QCheck.Gen.(
    let* sh = gen_signed_header in
    let* with_body = bool in
    if with_body then
      let+ txs = gen_txs in
      { Types.sh; body = Some txs }
    else return { Types.sh; body = None })

let gen_proof =
  QCheck.Gen.(
    let* later = gen_signed_header in
    let+ earlier = gen_signed_header in
    Types.make_proof ~later ~earlier)

let gen_evidence =
  QCheck.Gen.(
    let* accused = int_range 0 3 in
    let* a = gen_signed_header in
    let+ b = gen_signed_header in
    Types.make_evidence ~accused a b)

let gen_version =
  QCheck.Gen.(
    let* recovery_round = int_range 0 1_000 in
    let* origin = int_range 0 3 in
    let+ blocks =
      list_size (int_range 0 3)
        (let+ b = gen_block in
         let signer = b.Block.header.Header.proposer in
         (b, Fl_crypto.Signature.sign registry ~signer (Block.hash b)))
    in
    Types.make_version ~recovery_round ~origin blocks)

let gen_bbc =
  QCheck.Gen.(
    let open Fl_consensus.Bbc in
    oneof
      [ (let* round = int_range 0 50 in
         let+ value = bool in
         Est { round; value });
        (let* round = int_range 0 50 in
         let+ value = bool in
         Aux { round; value });
        (let+ v = bool in
         Decide v);
        return Stop ])

let gen_obbc =
  QCheck.Gen.(
    let open Fl_consensus.Obbc in
    oneof
      [ (let* value = bool in
         let+ pgd = option gen_proposal in
         Vote { value; pgd });
        return Ev_req;
        (let+ e = option (string_size (int_range 0 32)) in
         Ev (Option.map Codec.Slice.of_string e));
        (let+ b = gen_bbc in
         Fallback b);
        return Close ])

let gen_bracha =
  QCheck.Gen.(
    let open Fl_broadcast.Bracha in
    let body ctor =
      let* origin = int_range 0 6 in
      let* tag = int_range 0 40 in
      let+ payload = string_size (int_range 0 32) in
      ctor ~origin ~tag ~payload
    in
    oneof
      [ body (fun ~origin ~tag ~payload -> Send { origin; tag; payload });
        body (fun ~origin ~tag ~payload -> Echo { origin; tag; payload });
        body (fun ~origin ~tag ~payload -> Ready { origin; tag; payload });
        return Stop ])

let gen_prepared_entry =
  QCheck.Gen.(
    let* view = int_range 0 5 in
    let* seq = int_range 0 50 in
    let* digest = gen_hash in
    let+ batch = list_size (int_range 0 2) (string_size (int_range 0 8)) in
    (view, seq, digest, batch))

let gen_pbft =
  QCheck.Gen.(
    let open Fl_consensus.Pbft in
    oneof
      [ (let+ p = string_size (int_range 0 16) in
         Submit p);
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ batch = list_size (int_range 0 3) (string_size (int_range 0 8)) in
         Pre_prepare { view; seq; batch });
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ digest = gen_hash in
         Prepare { view; seq; digest });
        (let* view = int_range 0 5 in
         let* seq = int_range 0 50 in
         let+ digest = gen_hash in
         Commit { view; seq; digest });
        (let* new_view = int_range 0 5 in
         let* last_exec = int_range 0 20 in
         let+ prepared = list_size (int_range 0 2) gen_prepared_entry in
         View_change { new_view; last_exec; prepared });
        (let* view = int_range 0 5 in
         let+ vcs =
           list_size (int_range 0 2)
             (let* sender = int_range 0 6 in
              let* last_exec = int_range 0 20 in
              let+ prepared = list_size (int_range 0 2) gen_prepared_entry in
              (sender, (last_exec, prepared)))
         in
         New_view { view; vcs });
        return Stop ])

let gen_msg =
  QCheck.Gen.(
    oneof
      [ (let* txs = gen_txs in
         let+ ttl = int_range 0 3 in
         Msg.Body { body_hash = Block.body_hash txs; txs; ttl });
        (let+ proposal = gen_proposal in
         Msg.Push { proposal });
        (let* era = int_range 0 3 in
         let* round = int_range 0 1_000 in
         let* attempt = int_range 0 2 in
         let+ m = gen_obbc in
         Msg.Ob { era; round; attempt; m });
        (let+ round = int_range 0 1_000 in
         Msg.Req { round });
        (let* round = int_range 0 1_000 in
         let* proposal = gen_proposal in
         let+ txs = gen_txs in
         Msg.Reply { round; proposal; txs });
        (let* origin = int_range 0 3 in
         let* tag = int_range 0 40 in
         let+ payload = gen_proof in
         Msg.Rb (Fl_broadcast.Bracha.Send { origin; tag; payload }));
        (let+ v = gen_version in
         Msg.Ab (Fl_consensus.Pbft.Submit v));
        (let* origin = int_range 0 3 in
         let* tag = int_range 0 40 in
         let+ payload = gen_evidence in
         Msg.Evd (Fl_broadcast.Bracha.Echo { origin; tag; payload }));
        (let+ from_chunk = int_range 0 20 in
         Msg.Snap_req { from_chunk });
        (let* sid = int_range 0 5 in
         let* total = int_range 1 4 in
         let* seq = int_range 0 (total - 1) in
         let+ data = string_size (int_range 0 64) in
         Msg.Snap_chunk
           { sid; seq; total; data = Codec.Slice.of_string data });
        (let+ txs = gen_txs in
         Msg.Tx_handoff { txs; fees = Array.mapi (fun i _ -> i) txs }) ])

let gen_wal_record =
  QCheck.Gen.(
    let open Fl_persist.Wal in
    oneof
      [ (let* block = gen_block in
         let+ signer = int_range 0 3 in
         Append
           { block;
             signature =
               Fl_crypto.Signature.sign registry ~signer (Block.hash block) });
        (let+ from = int_range 0 1_000 in
         Truncate { from });
        (let* upto = int_range (-1) 1_000 in
         let+ era = int_range 0 5 in
         Definite { upto; era }) ])

let arb_of gen = QCheck.make ~print:(fun _ -> "<opaque>") gen

let arb_msg =
  QCheck.make
    ~print:(fun m -> Fl_crypto.Hex.encode (enc m))
    gen_msg

(* ---------- in-body writer/reader round-trips ---------- *)

(* Write through a plain writer, read back, and require both equality
   and full consumption — an in-body codec that leaves trailing bytes
   would corrupt whatever the carrier writes next. *)
let inbody_roundtrip ?(eq = ( = )) write read x =
  let w = Codec.Writer.create () in
  write w x;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let y = read r in
  eq x y && Codec.Reader.at_end r

let prop_inbody ?eq name gen write read =
  QCheck.Test.make ~name ~count:200 (arb_of gen)
    (inbody_roundtrip ?eq write read)

(* Slices decode as borrowed views of the frame, so their [base]/[off]
   never match a freshly built message structurally — canonicalize
   before comparing (content equality is what the codec promises). *)
let norm_slice s = Codec.Slice.of_string (Codec.Slice.to_string s)

let norm_obbc = function
  | Fl_consensus.Obbc.Ev (Some s) ->
      Fl_consensus.Obbc.Ev (Some (norm_slice s))
  | m -> m

let norm_msg = function
  | Msg.Ob { era; round; attempt; m } ->
      Msg.Ob { era; round; attempt; m = norm_obbc m }
  | Msg.Snap_chunk { sid; seq; total; data } ->
      Msg.Snap_chunk { sid; seq; total; data = norm_slice data }
  | m -> m

let obbc_eq a b = norm_obbc a = norm_obbc b
let msg_eq a b = norm_msg a = norm_msg b

let prop_tx_roundtrip =
  prop_inbody "codecs: tx roundtrip" gen_tx Serial.encode_tx Serial.decode_tx

let prop_txs_roundtrip =
  prop_inbody "codecs: tx array roundtrip" gen_txs Serial.encode_txs
    Serial.decode_txs

let prop_header_roundtrip =
  QCheck.Test.make ~name:"codecs: header roundtrip" ~count:200
    (arb_of gen_block) (fun b ->
      inbody_roundtrip Serial.encode_header Serial.decode_header
        b.Block.header)

let prop_signed_header_roundtrip =
  QCheck.Test.make ~name:"codecs: signed header roundtrip" ~count:200
    (arb_of gen_signed_header) (fun sh ->
      inbody_roundtrip Types.write_signed_header Types.read_signed_header sh
      && Types.decode_signed_header (Types.encode_signed_header sh) = Some sh)

let prop_proposal_roundtrip =
  prop_inbody "codecs: proposal roundtrip" gen_proposal Types.write_proposal
    Types.read_proposal

let prop_proof_roundtrip =
  prop_inbody "codecs: proof roundtrip" gen_proof Types.write_proof
    Types.read_proof

let prop_version_roundtrip =
  prop_inbody "codecs: version roundtrip" gen_version Types.write_version
    Types.read_version

(* Derived fields: the digest a value carries equals one recomputed
   from scratch out of its content, both as built and as decoded. *)
let proof_digest_from_scratch p =
  Fl_crypto.Sha256.digest
    (Types.encode_signed_header p.Types.later
    ^ Types.encode_signed_header p.Types.earlier)

let version_digest_from_scratch v =
  Fl_crypto.Sha256.digest
    (String.concat ""
       (Printf.sprintf "v:%d:%d" v.Types.recovery_round v.Types.origin
       :: List.concat_map (fun (b, s) -> [ Block.hash b; s ]) v.Types.blocks))

let decoded write read x =
  let w = Codec.Writer.create () in
  write w x;
  read (Codec.Reader.of_string (Codec.Writer.contents w))

let prop_derived_digests =
  QCheck.Test.make ~name:"codecs: stored digests match recomputation"
    ~count:200
    (arb_of QCheck.Gen.(triple gen_proof gen_evidence gen_version))
    (fun (p, e, v) ->
      let proof_ok p = Types.proof_digest p = proof_digest_from_scratch p in
      let evidence_ok e =
        Types.evidence_digest e
        = Fl_crypto.Sha256.digest (Sparse.to_string (Types.encode_evidence e))
      in
      let version_ok v =
        Types.version_digest v = version_digest_from_scratch v
        && v.Types.hashes = List.map (fun (b, _) -> Block.hash b) v.Types.blocks
      in
      proof_ok p
      && proof_ok (decoded Types.write_proof Types.read_proof p)
      && evidence_ok e
      && evidence_ok (decoded Types.write_evidence Types.read_evidence e)
      && version_ok v
      && version_ok (decoded Types.write_version Types.read_version v))

let test_body_hash_checked_on_decode () =
  let txs = Array.init 3 (fun i -> Tx.create ~id:i ~size:64) in
  let good = Msg.Body { body_hash = Block.body_hash txs; txs; ttl = 0 } in
  Alcotest.(check bool) "committed body decodes" true
    (Msg.decode (Msg.encode good) = Some good);
  let forged =
    Msg.Body { body_hash = Fl_crypto.Sha256.digest "other"; txs; ttl = 0 }
  in
  Alcotest.(check bool) "uncommitted body is rejected" true
    (Msg.decode (Msg.encode forged) = None)

let prop_bbc_roundtrip =
  prop_inbody "codecs: bbc roundtrip" gen_bbc Fl_consensus.Bbc.write_msg
    Fl_consensus.Bbc.read_msg

let prop_obbc_roundtrip =
  prop_inbody ~eq:obbc_eq "codecs: obbc roundtrip" gen_obbc
    (Fl_consensus.Obbc.write_msg Types.write_proposal)
    (Fl_consensus.Obbc.read_msg Types.read_proposal)

let prop_bracha_roundtrip =
  prop_inbody "codecs: bracha roundtrip" gen_bracha
    (Fl_broadcast.Bracha.write_msg Codec.Writer.bytes)
    (Fl_broadcast.Bracha.read_msg Codec.Reader.bytes)

let prop_pbft_roundtrip =
  prop_inbody "codecs: pbft roundtrip" gen_pbft
    (Fl_consensus.Pbft.write_msg Codec.Writer.bytes)
    (Fl_consensus.Pbft.read_msg Codec.Reader.bytes)

(* ---------- framed codecs ---------- *)

let prop_block_string_roundtrip =
  QCheck.Test.make ~name:"codecs: block string roundtrip" ~count:200
    (arb_of gen_block) (fun b ->
      Serial.block_of_string (Serial.block_to_string b) = Ok b)

let prop_msg_roundtrip =
  QCheck.Test.make ~name:"codecs: fireledger msg roundtrip" ~count:300 arb_msg
    (fun m ->
      match Msg.decode (Msg.encode m) with
      | Some m' -> msg_eq m m'
      | None -> false)

let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
  Bytes.to_string b

(* View decode ≡ copy decode: [Msg.decode_sub] on a frame embedded at
   an arbitrary offset of a larger buffer must agree with [Msg.decode]
   on the copied-out substring — over every message constructor (which
   transitively exercises every registered in-body codec: serial
   txs/blocks, signed headers, proposals, proofs, versions, bbc, obbc,
   bracha, pbft, snap chunks). Also under damage: a truncated or
   bit-flipped window must be rejected identically by both paths. *)
let prop_view_decode_equals_copy_decode =
  QCheck.Test.make ~name:"codecs: decode_sub = decode . String.sub"
    ~count:300
    QCheck.(
      triple arb_msg
        (string_of_size Gen.(int_range 0 24))
        (string_of_size Gen.(int_range 0 24)))
    (fun (m, prefix, suffix) ->
      let frame = enc m in
      let buf = prefix ^ frame ^ suffix in
      let pos = String.length prefix and len = String.length frame in
      let via_view = Msg.decode_sub buf ~pos ~len in
      let via_copy = dec (String.sub buf pos len) in
      match (via_view, via_copy) with
      | Some a, Some b -> msg_eq a b && msg_eq a m
      | None, None -> true
      | _ -> false)

let prop_view_decode_damage_parity =
  QCheck.Test.make
    ~name:"codecs: damaged views reject exactly like damaged copies"
    ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 20_000)))
    (fun (m, seed) ->
      let frame = enc m in
      let buf = "pfx" ^ frame ^ "sfx" in
      let flen = String.length frame in
      (* alternate between truncating the window and flipping a byte *)
      let pos = 3 in
      let buf, len =
        if seed land 1 = 0 then (buf, seed / 2 mod flen)
        else (flip buf (pos + (seed / 2 mod flen)), flen)
      in
      let via_view = Msg.decode_sub buf ~pos ~len in
      let via_copy = dec (String.sub buf pos len) in
      match (via_view, via_copy) with
      | None, None -> true
      | Some a, Some b -> msg_eq a b
      | _ -> false)

(* Aliasing safety: a decoded [Slice.t] borrows the frame buffer. The
   ownership rule says anything retained past the frame's lifetime
   must be copied ([Slice.to_string]); this pins both halves — the
   borrow really does alias the buffer (mutating it changes the view),
   and the copy-on-retain really detaches (the retained string is
   unaffected). *)
let test_slice_aliasing_safety () =
  let payload = String.init 48 (fun i -> Char.chr (0x40 + (i land 31))) in
  let m =
    Msg.Snap_chunk
      { sid = 2; seq = 1; total = 3; data = Codec.Slice.of_string payload }
  in
  let frame = enc m in
  (* the receive buffer: a mutable Bytes the frame sits inside *)
  let buf = Bytes.of_string ("hdr!" ^ frame ^ "!trl") in
  let s = Bytes.unsafe_to_string buf in
  match Msg.decode_sub s ~pos:4 ~len:(String.length frame) with
  | Some (Msg.Snap_chunk { data; _ }) ->
      let retained = Codec.Slice.to_string data in
      Alcotest.(check string) "decoded payload" payload retained;
      (* clobber the receive buffer, as a reusing transport would *)
      Bytes.fill buf 0 (Bytes.length buf) '\xff';
      Alcotest.(check string) "retained copy is detached" payload retained;
      Alcotest.(check bool) "borrowed view aliases the buffer" true
        (String.for_all (fun c -> c = '\xff') (Codec.Slice.to_string data))
  | _ -> Alcotest.fail "snap_chunk did not decode"

(* Same discipline one layer down: a Writer whose [contents] was taken
   can be cleared and reused without disturbing the taken string. *)
let test_writer_reuse_detached () =
  let w = Codec.Writer.create ~capacity:32 () in
  Codec.Writer.raw w "first-record";
  let first = Codec.Writer.contents w in
  Codec.Writer.clear w;
  Codec.Writer.raw w "SECOND-RECORD-LONGER";
  Alcotest.(check string) "first contents survive reuse" "first-record" first;
  Alcotest.(check string) "second contents correct" "SECOND-RECORD-LONGER"
    (Codec.Writer.contents w)

let prop_wal_record_roundtrip =
  QCheck.Test.make ~name:"codecs: WAL record roundtrip" ~count:200
    (arb_of gen_wal_record) (fun rec_ ->
      Fl_persist.Wal.decode_record (Fl_persist.Wal.encode_record rec_)
      = Ok rec_)

(* The WAL seals Append frames by hand (signature and block checksummed
   apart, the CRC combined); every record's frame must still be the
   length-prefixed [encode_record] bytes. One log for all cases: its
   scratch buffer is reused across frames of every size. *)
let prop_wal_frame_is_prefixed_record =
  let wal = Fl_persist.Wal.create ~segment_bytes:(1 lsl 16) in
  QCheck.Test.make ~name:"codecs: WAL frame = u32 length | record" ~count:200
    (arb_of gen_wal_record) (fun rec_ ->
      let record = Sparse.to_string (Fl_persist.Wal.encode_record rec_) in
      let w = Codec.Writer.create () in
      Codec.Writer.u32 w (String.length record);
      Codec.Writer.raw w record;
      String.equal
        (Sparse.to_string (Fl_persist.Wal.build_frame wal rec_))
        (Codec.Writer.contents w))

(* ---------- malformed inputs ---------- *)

(* Every [decode] is total over strings: random bytes and adversarial
   mutations must come back as [None]/[Error] — any escaped exception
   (in particular [Invalid_argument] from an unchecked allocation)
   fails the property. *)
let decoders : (string * (string -> bool)) list =
  [ ("msg", fun s -> dec s = None);
    ("block", fun s -> Result.is_error (Serial.block_of_string s));
    ("chain", fun s -> Result.is_error (Serial.decode_chain (Sparse.of_string s)));
    ("signed-header", fun s -> Types.decode_signed_header s = None);
    ("wal-record",
      fun s -> Result.is_error (Fl_persist.Wal.decode_record (Sparse.of_string s)));
    ("snapshot",
      fun s -> Result.is_error (Fl_persist.Snapshot.decode (Sparse.of_string s))) ]

let prop_random_bytes_rejected =
  QCheck.Test.make ~name:"codecs: random bytes never decode, never raise"
    ~count:500
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      List.for_all
        (fun (name, reject) ->
          try reject s
          with e ->
            QCheck.Test.fail_reportf "%s decoder raised %s" name
              (Printexc.to_string e))
        decoders)

let test_overflowing_count_rejected () =
  (* Regression: a 9-byte varint whose top bits overflow the 63-bit
     int into the sign used to slip past [seq_len]'s upper-bound
     guard and reach [Array.init] with a negative count. 88 bytes of
     filler parse as a structurally plausible header; the \x80 run is
     the overflowing transaction count. *)
  let s = String.make 88 'a' ^ String.make 8 '\x80' ^ String.make 8 'a' in
  match Serial.block_of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overflowed tx count decoded"

(* Regression: 88 bytes parse as a header claiming transactions, and a
   zero count makes the block header-only — a pruned round, which only
   a chain or snapshot image may hold. The standalone block decoder
   used to accept it, so about 1% of random-bytes runs failed. *)
let test_header_only_block_rejected () =
  (match Serial.block_of_string (String.make 88 'a' ^ "\000") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "header-only standalone block decoded");
  let b =
    Block.create ~round:3 ~proposer:1 ~prev_hash:Block.genesis_hash
      [| Tx.create ~id:1 ~size:16 |]
  in
  let pruned = Serial.block_to_string { b with Block.txs = [||] } in
  match Serial.block_of_string pruned with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pruned block decoded standalone"

(* Regression: a varint 88, 88 bytes that parse as a header, then a
   varint 80 and 80 bytes. The signed-header decoder used to accept a
   signature of any length, so this random string decoded (the shrunk
   case of a rare random-bytes failure, QCHECK_SEED=595412660). *)
let test_signature_length_rejected () =
  let s = "X" ^ String.make 88 'a' ^ "P" ^ String.make 80 'a' in
  match Types.decode_signed_header s with
  | None -> ()
  | Some _ -> Alcotest.fail "80-byte signature decoded"

let prop_bitflip_rejected =
  (* A flipped byte anywhere in the CRC-covered body must be caught;
     flips in the 6-byte envelope header must at minimum never raise
     (a flipped tag re-frames the body under a different schema, which
     the structural parse may or may not reject — but must survive). *)
  QCheck.Test.make ~name:"codecs: single byte flip is caught by the envelope"
    ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 10_000)))
    (fun (m, off_seed) ->
      let s = enc m in
      let off = off_seed mod String.length s in
      let mutated = flip s off in
      match dec mutated with
      | None -> true
      | Some m' ->
          (* Only a header-byte flip may still decode, and never to a
             silently different reading of the same message class. *)
          if off >= 6 then
            QCheck.Test.fail_reportf
              "body flip at %d survived the CRC" off
          else m' <> m || mutated = s)

let prop_truncation_rejected =
  QCheck.Test.make ~name:"codecs: truncated frames never decode" ~count:300
    QCheck.(pair arb_msg (QCheck.make Gen.(int_range 0 10_000)))
    (fun (m, len_seed) ->
      let s = enc m in
      let len = len_seed mod String.length s in
      dec (String.sub s 0 len) = None)

let prop_wal_record_mutation =
  QCheck.Test.make ~name:"codecs: mutated WAL records are rejected" ~count:200
    QCheck.(pair (arb_of gen_wal_record) (QCheck.make Gen.(int_range 0 10_000)))
    (fun (rec_, off_seed) ->
      let s = Sparse.to_string (Fl_persist.Wal.encode_record rec_) in
      let off = off_seed mod String.length s in
      match Fl_persist.Wal.decode_record (Sparse.of_string (flip s off)) with
      | Error _ -> true
      | Ok _ -> off < 6 (* tag-byte reframing; body flips must fail *))

(* ---------- snapshot round-trip ---------- *)

let small_store () =
  let store = Store.create () in
  let prev = ref Block.genesis_hash in
  for round = 0 to 4 do
    let txs =
      Array.init 3 (fun i -> Tx.create ~id:((round * 10) + i) ~size:100)
    in
    let b = Block.create ~round ~proposer:(round mod 4) ~prev_hash:!prev txs in
    (match Store.append store b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "append: %a" Store.pp_error e);
    prev := Block.hash b
  done;
  store

let test_snapshot_roundtrip () =
  let store = small_store () in
  match
    Fl_persist.Snapshot.build ~store ~upto:3 ~era:1 ~app:"app-bytes"
      ~app_hash:(Fl_crypto.Sha256.digest "state")
  with
  | None -> Alcotest.fail "snapshot build failed"
  | Some snap -> (
      let enc = Fl_persist.Snapshot.encode snap in
      match Fl_persist.Snapshot.decode (Sparse.of_string enc) with
      | Error e -> Alcotest.failf "decode: %s" e
      | Ok snap' -> (
          let module S = Fl_persist.Snapshot in
          Alcotest.(check (pair int int)) "upto, era" (3, 1)
            (snap'.S.upto, snap'.S.era);
          Alcotest.(check (pair string string)) "app payload and hash"
            ("app-bytes", Fl_crypto.Sha256.digest "state")
            (snap'.S.app, snap'.S.app_hash);
          Alcotest.(check int) "image length" (String.length enc)
            (S.length snap);
          match Fl_persist.Snapshot.restore_chain snap' with
          | Error e -> Alcotest.failf "restore: %s" e
          | Ok prefix ->
              Alcotest.(check int) "prefix length" 4 (Store.length prefix);
              Alcotest.(check bool) "prefix integrity" true
                (Store.check_integrity prefix);
              (* Byte corruption anywhere in the image is caught. *)
              for off = 0 to String.length enc - 1 do
                match Fl_persist.Snapshot.decode (Sparse.of_string (flip enc off)) with
                | Error _ -> ()
                | Ok _ when off < 6 -> ()
                | Ok _ ->
                    Alcotest.failf "snapshot flip at %d survived the CRC" off
              done))

(* ---------- cross-layer: NIC bytes = encoding length ---------- *)

let test_nic_charges_encoding_length () =
  (* The acceptance check for the wire-true transport: send real
     protocol messages — including a synthetic-transaction body whose
     padding must count — and require every byte-accounting layer
     (sender NIC, per-link ledger, per-node totals) to agree with
     [Sparse.length (Msg.encode m)] exactly. *)
  let w =
    World.make ~seed:97 ~n:2 ~key:Msg.key ~encode:Msg.encode
      ~decode:Msg.decode ()
  in
  let txs = Array.init 4 (fun i -> Tx.create ~id:i ~size:512) in
  let block =
    Block.create ~round:0 ~proposer:0 ~prev_hash:Block.genesis_hash txs
  in
  let sh = Types.sign_header registry ~signer:0 block.Block.header in
  let msgs =
    [ Msg.Body
        { body_hash = block.Block.header.Header.body_hash; txs; ttl = 1 };
      Msg.Push { proposal = { Types.sh; body = None } };
      Msg.Req { round = 7 };
      Msg.Ob
        { era = 0;
          round = 3;
          attempt = 0;
          m = Fl_consensus.Obbc.Vote { value = true; pgd = None } } ]
  in
  let expected =
    List.fold_left (fun acc m -> acc + Sparse.length (Msg.encode m)) 0 msgs
  in
  (* Synthetic padding is on the wire: the Body frame must charge the
     four 512-byte transactions it carries. *)
  Alcotest.(check bool) "padding counted" true
    (Sparse.length (Msg.encode (List.hd msgs)) > 4 * 512);
  List.iter (fun m -> Fl_net.Net.send w.World.net ~src:0 ~dst:1 (Msg.encode m)) msgs;
  World.run w;
  Alcotest.(check int) "NIC bytes = encoded bytes" expected
    (Fl_net.Nic.bytes_sent w.World.nics.(0));
  Alcotest.(check int) "link ledger agrees" expected
    (Fl_net.Net.link_bytes w.World.net ~src:0 ~dst:1);
  Alcotest.(check int) "per-node total agrees" expected
    (Fl_net.Net.bytes_out w.World.net ~node:0);
  Alcotest.(check int) "all delivered" (List.length msgs)
    (Fl_net.Net.messages_delivered w.World.net)

(* ---------- zero-run frames = dense frames ---------- *)

(* Every top-level codec seals through a writer whose padding is a
   zero run. Its frame, written out, must equal the frame sealed the
   dense way ({!Dense.seal}, over the same body writers); its decode
   must equal the decode of those bytes; and so must the decode of a
   mutated body, re-sealed (so the mutation gets past the CRC) and cut
   into runs at every stretch of [k] or more zeros, so that reads
   straddle runs wherever the mutation sends them. Decoded values are
   compared by their re-encoding: slices borrow different buffers on
   the two paths. *)

(* [s] as a piece whose zero stretches of at least [k] bytes are runs. *)
let sparsify k s =
  let w = Codec.Writer.create () in
  let n = String.length s and i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && s.[!j] = '\000' do
      incr j
    done;
    if !j - !i >= k then begin
      Codec.Writer.pad w (!j - !i);
      i := !j
    end
    else begin
      Codec.Writer.u8 w (Char.code s.[!i]);
      incr i
    end
  done;
  Codec.Writer.piece w

let reseal s =
  let body = String.sub s 6 (String.length s - 6) in
  Dense.seal ~tag:(Char.code s.[1]) (fun w -> Codec.Writer.raw w body)

type mutation = Flip of int * int | Set of int * int | Zero of int * int

let gen_mutation =
  QCheck.Gen.(
    let* at = int_range 0 100_000 in
    let* v = int_range 0 255 in
    oneofl [ Flip (at, v land 7); Set (at, v); Zero (at, v) ])

let mutate s m =
  let b = Bytes.of_string s in
  let n = Bytes.length b - 6 in
  (if n > 0 then
     match m with
     | Flip (at, bit) ->
         let i = 6 + (at mod n) in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
     | Set (at, v) -> Bytes.set b (6 + (at mod n)) (Char.chr v)
     | Zero (at, len) ->
         let i = at mod n in
         Bytes.fill b (6 + i) (min len (n - i)) '\000');
  Bytes.to_string b

let prop_zero_run_codec name ~gen ~encode ~decode ~dense =
  QCheck.Test.make ~name ~count:200
    (arb_of
       QCheck.Gen.(
         quad gen (list_size (int_range 1 3) gen_mutation) (int_range 1 9)
           (int_range 0 3)))
    (fun (m, muts, k, truncate) ->
      let reenc = Option.map (fun m -> Sparse.to_string (encode m)) in
      let piece = encode m in
      let bytes = Sparse.to_string piece in
      let tag, write = dense m in
      let same what a b =
        a = b
        || QCheck.Test.fail_reportf "%s: %s" what
             (match (a, b) with
             | Some _, None -> "piece decodes, bytes do not"
             | None, Some _ -> "bytes decode, piece does not"
             | _ -> "different messages")
      in
      String.equal bytes (Dense.seal ~tag write)
      && same "valid" (reenc (decode piece)) (Some bytes)
      && same "valid, re-cut" (reenc (decode (sparsify k bytes)))
           (Some bytes)
      &&
      let mutated = List.fold_left mutate bytes muts in
      let mutated =
        reseal
          (String.sub mutated 0 (max 6 (String.length mutated - truncate)))
      in
      same "mutated"
        (reenc (decode (sparsify k mutated)))
        (reenc (decode (Sparse.of_string mutated))))

let msg_dense (m : Msg.t) =
  let open Fl_consensus in
  let v = Codec.Writer.varint in
  match m with
  | Msg.Body { body_hash; txs; ttl } ->
      ( 0,
        fun w ->
          Codec.Writer.raw w body_hash;
          Serial.encode_txs w txs;
          v w ttl )
  | Msg.Push { proposal } -> (1, fun w -> Types.write_proposal w proposal)
  | Msg.Ob { era; round; attempt; m } ->
      ( 2,
        fun w ->
          v w era;
          v w round;
          v w attempt;
          Obbc.write_msg Types.write_proposal w m )
  | Msg.Req { round } -> (3, fun w -> v w round)
  | Msg.Reply { round; proposal; txs } ->
      ( 4,
        fun w ->
          v w round;
          Types.write_proposal w proposal;
          Serial.encode_txs w txs )
  | Msg.Rb m -> (5, fun w -> Fl_broadcast.Bracha.write_msg Types.write_proof w m)
  | Msg.Ab m -> (6, fun w -> Pbft.write_msg Types.write_version w m)
  | Msg.Evd m ->
      (7, fun w -> Fl_broadcast.Bracha.write_msg Types.write_evidence w m)
  | Msg.Snap_req { from_chunk } -> (8, fun w -> v w from_chunk)
  | Msg.Snap_chunk { sid; seq; total; data } ->
      ( 9,
        fun w ->
          v w sid;
          v w seq;
          v w total;
          Codec.Writer.slice w data )
  | Msg.Tx_handoff { txs; fees } ->
      ( 10,
        fun w ->
          Serial.encode_txs w txs;
          Array.iter (v w) fees )

(* Versions carrying whole blocks, bodies that are mostly padding and
   state-transfer chunks (tags 6, 0 and 9) at least a third of the
   time. *)
let gen_msg_runs =
  QCheck.Gen.(
    frequency
      [ (2, gen_msg);
        (1, map (fun v -> Msg.Ab (Fl_consensus.Pbft.Submit v)) gen_version);
        ( 1,
          let* txs = array_size (int_range 1 6) gen_tx in
          return (Msg.Body { body_hash = Block.body_hash txs; txs; ttl = 0 }) ) ])

let prop_msg_zero_runs =
  prop_zero_run_codec "codecs: msg frame = dense frame, piece decode = bytes decode"
    ~gen:gen_msg_runs ~encode:Msg.encode ~decode:Msg.decode ~dense:msg_dense

let prop_wal_zero_runs =
  let open Fl_persist.Wal in
  prop_zero_run_codec "codecs: WAL record = dense frame, piece decode = bytes decode"
    ~gen:gen_wal_record ~encode:encode_record
    ~decode:(fun p -> Result.to_option (decode_record p))
    ~dense:(function
      | Append { block; signature } ->
          ( 1,
            fun w ->
              Codec.Writer.bytes w signature;
              Serial.encode_block w block )
      | Truncate { from } -> (2, fun w -> Codec.Writer.varint w from)
      | Definite { upto; era } ->
          ( 3,
            fun w ->
              Codec.Writer.varint w (upto + 1);
              Codec.Writer.varint w era ))

let prop_evidence_zero_runs =
  prop_zero_run_codec
    "codecs: evidence = dense frame, piece decode = bytes decode"
    ~gen:gen_evidence ~encode:Types.encode_evidence ~decode:Types.decode_evidence
    ~dense:(fun e -> (0x45, fun w -> Types.write_evidence w e))

let gen_hs =
  QCheck.Gen.(
    let module H = Fl_baselines.Hotstuff in
    let gen_qc =
      let* qc_view = int_range 0 100 in
      let+ qc_hash = gen_hash in
      { H.qc_view; qc_hash }
    in
    oneof
      [ (let* b_view = int_range 0 100 in
         let* b_parent = gen_hash in
         let* b_justify = gen_qc in
         let* b_txs = array_size (int_range 0 6) gen_tx in
         let* b_hash = gen_hash in
         let+ b_created = int_range 0 1_000_000 in
         H.Proposal
           { b_view; b_parent; b_justify; b_txs; b_hash;
             b_created = Fl_sim.Time.ns b_created });
        (let* view = int_range 0 100 in
         let+ hash = gen_hash in
         H.Vote { view; hash });
        (let* view = int_range 0 100 in
         let+ qc = gen_qc in
         H.New_view { view; qc }) ])

let prop_hotstuff_zero_runs =
  let module H = Fl_baselines.Hotstuff in
  let write_qc w (q : H.qc) =
    Codec.Writer.varint w q.H.qc_view;
    Codec.Writer.bytes w q.H.qc_hash
  in
  prop_zero_run_codec
    "codecs: hotstuff = dense frame, piece decode = bytes decode" ~gen:gen_hs
    ~encode:H.encode ~decode:H.decode ~dense:(function
    | H.Proposal b ->
        ( 0,
          fun w ->
            Codec.Writer.varint w b.H.b_view;
            Codec.Writer.bytes w b.H.b_parent;
            write_qc w b.H.b_justify;
            Serial.encode_txs w b.H.b_txs;
            Codec.Writer.bytes w b.H.b_hash;
            Codec.Writer.varint w b.H.b_created )
    | H.Vote { view; hash } ->
        ( 1,
          fun w ->
            Codec.Writer.varint w view;
            Codec.Writer.bytes w hash )
    | H.New_view { view; qc } ->
        ( 2,
          fun w ->
            Codec.Writer.varint w view;
            write_qc w qc ))

let prop_pbft_baseline_zero_runs =
  let module P = Fl_consensus.Pbft in
  let gen =
    QCheck.Gen.(
      let* view = int_range 0 5 in
      let* seq = int_range 0 50 in
      oneof
        [ map (fun tx -> P.Submit tx) gen_tx;
          map
            (fun batch -> P.Pre_prepare { view; seq; batch })
            (list_size (int_range 0 4) gen_tx);
          map (fun digest -> P.Prepare { view; seq; digest }) gen_hash ])
  in
  prop_zero_run_codec
    "codecs: pbft baseline = dense frame, piece decode = bytes decode" ~gen
    ~encode:Fl_baselines.Pbft_cluster.encode_msg
    ~decode:Fl_baselines.Pbft_cluster.decode_msg
    ~dense:(fun m -> (0, fun w -> P.write_msg Serial.encode_tx w m))

(* A body of 100 synthetic 512-byte transactions is 97% padding. A bit
   flipped inside a run must fail the CRC: [decode_tx] skips padding
   without reading it, so the envelope is the only guard. On the wire,
   every corrupted copy is dropped and counted by the receiving hub. *)
let padded_body () =
  let txs = Array.init 100 (fun i -> Tx.create ~id:i ~size:512) in
  Msg.Body { body_hash = Block.body_hash txs; txs; ttl = 0 }

let test_flip_in_padding_rejected () =
  let m = padded_body () in
  let bytes = enc m in
  (* header, body hash, one-byte count, first tx's 13-byte head *)
  let first_pad = 6 + 32 + 1 + 13 in
  List.iter
    (fun off ->
      Alcotest.(check char) "inside padding" '\000' bytes.[off];
      Alcotest.(check bool)
        (Printf.sprintf "flip at %d rejected" off)
        true
        (dec (flip bytes off) = None))
    [ first_pad; first_pad + 511; String.length bytes - 2 ];
  let w =
    World.make ~seed:5 ~n:2 ~key:Msg.key ~encode:Msg.encode ~decode:Msg.decode ()
  in
  let hub = World.hub w 1 in
  let sent = 20 in
  Fl_net.Net.set_corrupt w.World.net ~node:0 1.0;
  for _ = 1 to sent do
    Fl_net.Net.send w.World.net ~src:0 ~dst:1 (Msg.encode m)
  done;
  World.run w;
  Alcotest.(check int) "every copy corrupted" sent
    (Fl_net.Net.messages_corrupted w.World.net);
  Alcotest.(check int) "every copy counted as a decode error" sent
    (Fl_net.Hub.malformed hub)

(* The frame of a broadcast 100x512 body and its decoded message:
   about 1.3 KB of literal bytes and one run per transaction, where
   written-out frames held 52 KB (6,500 words). *)
let test_padded_frame_heap () =
  let w =
    World.make ~seed:6 ~n:4 ~key:Msg.key ~encode:Msg.encode ~decode:Msg.decode ()
  in
  let got = ref None in
  Fl_sim.Fiber.spawn w.World.engine (fun () ->
      let _, frame = Fl_sim.Mailbox.recv (Fl_net.Net.inbox w.World.net 1) in
      got := Some frame);
  Fl_net.Net.broadcast w.World.net ~src:0 (Msg.encode (padded_body ()));
  World.run w;
  match !got with
  | None -> Alcotest.fail "no frame"
  | Some frame ->
      Alcotest.(check int) "charged in full"
        (6 + 32 + 1 + (100 * (13 + 512)) + 1)
        (Sparse.length (Fl_net.Net.Frame.piece frame));
      let frame_words = Obj.reachable_words (Obj.repr (Fl_net.Net.Frame.piece frame)) in
      Alcotest.(check bool)
        (Printf.sprintf "frame %d words <= 500" frame_words)
        true (frame_words <= 500);
      (match Fl_net.Net.Frame.msg frame with
      | Some (Msg.Body _) -> ()
      | _ -> Alcotest.fail "body did not decode");
      let words = Obj.reachable_words (Obj.repr frame) in
      Alcotest.(check bool)
        (Printf.sprintf "frame + message %d words <= 1500" words)
        true (words <= 1500)

let suite =
  [ QCheck_alcotest.to_alcotest prop_tx_roundtrip;
    QCheck_alcotest.to_alcotest prop_txs_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_signed_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_proposal_roundtrip;
    QCheck_alcotest.to_alcotest prop_proof_roundtrip;
    QCheck_alcotest.to_alcotest prop_version_roundtrip;
    QCheck_alcotest.to_alcotest prop_derived_digests;
    Alcotest.test_case "body hash checked on decode" `Quick
      test_body_hash_checked_on_decode;
    QCheck_alcotest.to_alcotest prop_bbc_roundtrip;
    QCheck_alcotest.to_alcotest prop_obbc_roundtrip;
    QCheck_alcotest.to_alcotest prop_bracha_roundtrip;
    QCheck_alcotest.to_alcotest prop_pbft_roundtrip;
    QCheck_alcotest.to_alcotest prop_block_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_msg_roundtrip;
    QCheck_alcotest.to_alcotest prop_view_decode_equals_copy_decode;
    QCheck_alcotest.to_alcotest prop_view_decode_damage_parity;
    Alcotest.test_case "slice aliasing safety (copy-on-retain)" `Quick
      test_slice_aliasing_safety;
    Alcotest.test_case "writer reuse detaches taken contents" `Quick
      test_writer_reuse_detached;
    QCheck_alcotest.to_alcotest prop_wal_record_roundtrip;
    QCheck_alcotest.to_alcotest prop_wal_frame_is_prefixed_record;
    QCheck_alcotest.to_alcotest prop_random_bytes_rejected;
    Alcotest.test_case "overflowing sequence count rejected" `Quick
      test_overflowing_count_rejected;
    Alcotest.test_case "header-only standalone block rejected" `Quick
      test_header_only_block_rejected;
    Alcotest.test_case "wrong-length header signature rejected" `Quick
      test_signature_length_rejected;
    QCheck_alcotest.to_alcotest prop_bitflip_rejected;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    QCheck_alcotest.to_alcotest prop_wal_record_mutation;
    Alcotest.test_case "snapshot roundtrip + corruption" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "nic charges encoding length" `Quick
      test_nic_charges_encoding_length;
    QCheck_alcotest.to_alcotest prop_msg_zero_runs;
    QCheck_alcotest.to_alcotest prop_wal_zero_runs;
    QCheck_alcotest.to_alcotest prop_evidence_zero_runs;
    QCheck_alcotest.to_alcotest prop_hotstuff_zero_runs;
    QCheck_alcotest.to_alcotest prop_pbft_baseline_zero_runs;
    Alcotest.test_case "bit flip inside padding rejected" `Quick
      test_flip_in_padding_rejected;
    Alcotest.test_case "padded frame heap bound" `Quick test_padded_frame_heap ]
