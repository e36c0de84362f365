open Fl_sim
open Fl_fireledger
open Fl_chain

let config = Config.default ~n:4

(* ---------- Timer ---------- *)

let test_timer_backoff_and_recovery () =
  let t = Timer.create config in
  let initial = Timer.current t in
  Timer.on_timeout t;
  let doubled = Timer.current t in
  Alcotest.(check bool) "doubles on timeout" true (doubled >= 2 * initial);
  Timer.on_timeout t;
  Alcotest.(check bool) "keeps doubling" true (Timer.current t >= 2 * doubled);
  (* A success clears the backoff and returns to EMA-based tuning. *)
  Timer.on_success t ~delay:(Time.ms 10);
  Alcotest.(check bool) "success clears backoff" true
    (Timer.current t < Timer.current (Timer.create config) * 8)

let test_timer_tracks_delay () =
  let t = Timer.create config in
  for _ = 1 to 50 do
    Timer.on_success t ~delay:(Time.ms 10)
  done;
  let settled = Timer.current t in
  (* timer ~ slack * EMA(10ms) = ~40ms *)
  Alcotest.(check bool)
    (Printf.sprintf "converges near slack*delay (%d)" settled)
    true
    (settled > Time.ms 20 && settled < Time.ms 80)

let test_timer_bounds () =
  let t = Timer.create config in
  for _ = 1 to 100 do
    Timer.on_timeout t
  done;
  Alcotest.(check bool) "capped at max" true
    (Timer.current t <= config.Config.max_timeout);
  let t2 = Timer.create config in
  for _ = 1 to 50 do
    Timer.on_success t2 ~delay:0
  done;
  Alcotest.(check bool) "floored at min" true
    (Timer.current t2 >= config.Config.min_timeout)

(* ---------- Detector ---------- *)

let test_detector_suspects_after_threshold () =
  let d = Detector.create config in
  Alcotest.(check bool) "initially clear" false (Detector.suspected d 1);
  Detector.record_timeout d ~proposer:1;
  Alcotest.(check bool) "one strike not enough" false (Detector.suspected d 1);
  Detector.record_timeout d ~proposer:1;
  Alcotest.(check bool) "suspected at threshold" true (Detector.suspected d 1)

let test_detector_cap_and_invalidate () =
  let d = Detector.create config in
  (* f = 1 for n = 4: at most one suspect. *)
  List.iter
    (fun p ->
      Detector.record_timeout d ~proposer:p;
      Detector.record_timeout d ~proposer:p)
    [ 0; 1; 2 ];
  Alcotest.(check int) "capped at f suspects" 1 (Detector.suspect_count d);
  Detector.invalidate d;
  Alcotest.(check int) "invalidate clears" 0 (Detector.suspect_count d)

let test_detector_delivery_clears () =
  let d = Detector.create config in
  Detector.record_timeout d ~proposer:2;
  Detector.record_timeout d ~proposer:2;
  Alcotest.(check bool) "suspected" true (Detector.suspected d 2);
  Detector.record_delivery d ~proposer:2;
  Alcotest.(check bool) "delivery clears suspicion" false
    (Detector.suspected d 2)

let test_detector_disabled () =
  let d = Detector.create { config with Config.fd_enabled = false } in
  for _ = 1 to 10 do
    Detector.record_timeout d ~proposer:1
  done;
  Alcotest.(check bool) "disabled FD never suspects" false
    (Detector.suspected d 1)

(* ---------- Rotation ---------- *)

let test_rotation_round_robin () =
  let r = Rotation.create config ~seed:1 in
  Alcotest.(check int) "successor" 2 (Rotation.successor r ~round:5 1);
  Alcotest.(check int) "wraps" 0 (Rotation.successor r ~round:5 3)

let test_rotation_skips_recent () =
  let r = Rotation.create config ~seed:1 in
  Alcotest.(check int) "skips recent proposer" 2
    (Rotation.eligible r ~round:7 ~recent:[ 1 ] 1);
  Alcotest.(check int) "skips chain of recents" 3
    (Rotation.eligible r ~round:7 ~recent:[ 1; 2 ] 1);
  Alcotest.(check int) "no skip needed" 1
    (Rotation.eligible r ~round:7 ~recent:[ 0 ] 1)

let test_rotation_permutation_properties () =
  let cfg =
    { (Config.default ~n:7) with
      Config.permute_proposers = true;
      permute_period = 10 }
  in
  let r = Rotation.create cfg ~seed:5 in
  (* Within one epoch the successor function is a full cycle. *)
  let visited = Hashtbl.create 7 in
  let rec walk x steps =
    if steps > 0 then begin
      Hashtbl.replace visited x ();
      walk (Rotation.successor r ~round:25 x) (steps - 1)
    end
  in
  walk 0 7;
  Alcotest.(check int) "full cycle covers all nodes" 7 (Hashtbl.length visited);
  (* Same seed: all nodes compute the same order. *)
  let r2 = Rotation.create cfg ~seed:5 in
  for x = 0 to 6 do
    Alcotest.(check int)
      (Printf.sprintf "deterministic successor of %d" x)
      (Rotation.successor r ~round:25 x)
      (Rotation.successor r2 ~round:25 x)
  done;
  (* Different epochs eventually permute differently. *)
  let differs =
    List.exists
      (fun e ->
        List.exists
          (fun x ->
            Rotation.successor r ~round:(e * 10) x
            <> Rotation.successor r ~round:0 x)
          [ 0; 1; 2; 3; 4; 5; 6 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "epochs differ" true differs

(* ---------- Types: proofs and versions ---------- *)

let registry = Fl_crypto.Signature.create_registry ~seed:"units" ~n:4

let mk_block ~round ~proposer ~prev =
  Block.create ~round ~proposer ~prev_hash:prev
    (Array.init 3 (fun i -> Tx.create ~id:((round * 10) + i) ~size:64))

let signed b =
  Types.sign_header registry ~signer:b.Block.header.Header.proposer
    b.Block.header

let test_signed_header_roundtrip () =
  let b = mk_block ~round:3 ~proposer:2 ~prev:Block.genesis_hash in
  let sh = signed b in
  Alcotest.(check bool) "valid" true (Types.signed_header_valid registry sh);
  let enc = Types.encode_signed_header sh in
  (match Types.decode_signed_header enc with
  | Some sh' ->
      Alcotest.(check bool) "roundtrip header" true
        (Header.equal sh.Types.header sh'.Types.header);
      Alcotest.(check string) "roundtrip sig" sh.Types.signature
        sh'.Types.signature
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check (option reject)) "garbage rejected" None
    (Types.decode_signed_header "nonsense")

let test_proof_validity () =
  let b0 = mk_block ~round:0 ~proposer:0 ~prev:Block.genesis_hash in
  let b1_good = mk_block ~round:1 ~proposer:1 ~prev:(Block.hash b0) in
  let b1_bad = mk_block ~round:1 ~proposer:1 ~prev:Block.genesis_hash in
  (* Consistent chain: not a proof. *)
  Alcotest.(check bool) "consistent pair is no proof" false
    (Types.proof_valid registry
       (Types.make_proof ~later:(signed b1_good) ~earlier:(signed b0)));
  (* Broken link with valid signatures: a proof. *)
  Alcotest.(check bool) "broken link is a proof" true
    (Types.proof_valid registry
       (Types.make_proof ~later:(signed b1_bad) ~earlier:(signed b0)));
  (* Forged signature: rejected. *)
  let forged = { (signed b1_bad) with Types.signature = String.make 32 'x' } in
  Alcotest.(check bool) "forged sig rejected" false
    (Types.proof_valid registry
       (Types.make_proof ~later:forged ~earlier:(signed b0)));
  (* Non-consecutive rounds: rejected. *)
  let b5 = mk_block ~round:5 ~proposer:1 ~prev:Block.genesis_hash in
  Alcotest.(check bool) "non-consecutive rejected" false
    (Types.proof_valid registry
       (Types.make_proof ~later:(signed b5) ~earlier:(signed b0)))

let build_chain proposers =
  let rec go round prev acc = function
    | [] -> List.rev acc
    | p :: rest ->
        let b = mk_block ~round ~proposer:p ~prev in
        go (round + 1) (Block.hash b) ((b, (signed b).Types.signature) :: acc)
          rest
  in
  go 0 Block.genesis_hash [] proposers

let anchor_of blocks round =
  if round < 0 then Some Block.genesis_hash
  else
    List.nth_opt blocks round
    |> Option.map (fun (b, _) -> Block.hash b)

let test_version_validation () =
  let chain = build_chain [ 0; 1; 2; 3; 0; 1 ] in
  let f = 1 and n = 4 in
  (* Recovery for round 4: version = blocks 2..5. *)
  let suffix = List.filteri (fun i _ -> i >= 2) chain in
  let v = Types.make_version ~recovery_round:4 ~origin:0 suffix in
  Alcotest.(check bool) "well-formed version adoptable" true
    (Types.validate_version registry ~f ~n ~anchor:(anchor_of chain) v
    = Types.Adoptable);
  Alcotest.(check int) "tip" 5 (Types.version_tip v);
  (* Empty version is trivially adoptable. *)
  Alcotest.(check bool) "empty adoptable" true
    (Types.validate_version registry ~f ~n ~anchor:(anchor_of chain)
       (Types.make_version ~recovery_round:4 ~origin:1 [])
    = Types.Adoptable);
  (* Wrong starting round: invalid. *)
  let late = List.filteri (fun i _ -> i >= 3) chain in
  Alcotest.(check bool) "wrong start invalid" true
    (Types.validate_version registry ~f ~n ~anchor:(anchor_of chain)
       (Types.make_version ~recovery_round:4 ~origin:2 late)
    = Types.Invalid);
  (* Unanchored: our chain lacks the anchor block. *)
  Alcotest.(check bool) "missing anchor is unanchored" true
    (Types.validate_version registry ~f ~n
       ~anchor:(fun _ -> None)
       v
    = Types.Unanchored)

let test_version_rejects_rotation_violation () =
  (* Same proposer twice within an f+1 window. *)
  let chain = build_chain [ 0; 1; 2; 2; 3; 0 ] in
  let suffix = List.filteri (fun i _ -> i >= 2) chain in
  let v = Types.make_version ~recovery_round:4 ~origin:0 suffix in
  Alcotest.(check bool) "rotation violation invalid" true
    (Types.validate_version registry ~f:1 ~n:4 ~anchor:(anchor_of chain) v
    = Types.Invalid)

(* A version as a receiver holds it: decoded from its wire bytes. *)
let decode_version v =
  let w = Fl_wire.Codec.Writer.create () in
  Types.write_version w v;
  Types.read_version
    (Fl_wire.Codec.Reader.of_string (Fl_wire.Codec.Writer.contents w))

let test_version_rejects_tampered_body () =
  let chain = build_chain [ 0; 1; 2; 3; 0; 1 ] in
  let suffix = List.filteri (fun i _ -> i >= 2) chain in
  let tampered =
    match suffix with
    | (b, s) :: rest ->
        ({ b with Block.txs = [| Tx.create ~id:999 ~size:64 |] }, s) :: rest
    | [] -> []
  in
  let v = Types.make_version ~recovery_round:4 ~origin:0 tampered in
  Alcotest.(check bool) "tampered body invalid" true
    (Types.validate_version registry ~f:1 ~n:4 ~anchor:(anchor_of chain) v
    = Types.Invalid);
  (* Receivers of one decoded frame share its verdict: still invalid
     at each of them. *)
  let shared = decode_version v in
  for _ = 1 to 7 do
    Alcotest.(check bool) "tampered body invalid at every receiver" true
      (Types.validate_version registry ~f:1 ~n:4 ~anchor:(anchor_of chain)
         shared
      = Types.Invalid)
  done

let sha256_calls () =
  let s =
    List.find
      (fun s -> s.Fl_prof.Prof.p_sub = Fl_prof.Prof.sha256)
      (Fl_prof.Prof.stats ())
  in
  s.Fl_prof.Prof.p_calls

let test_version_checked_once () =
  let chain = build_chain [ 0; 1; 2; 3; 0; 1 ] in
  let v =
    Types.make_version ~recovery_round:4 ~origin:0
      (List.filteri (fun i _ -> i >= 2) chain)
  in
  (* The anchor reads precomputed hashes, as a receiver reads its own
     store: only the version's checks hash. *)
  let hashes = Array.of_list (List.map (fun (b, _) -> Block.hash b) chain) in
  let anchor r = if r < 0 then Some Block.genesis_hash else Some hashes.(r) in
  let validate_at ~receivers v =
    Fl_prof.Prof.enable ();
    Fun.protect ~finally:Fl_prof.Prof.disable (fun () ->
        for _ = 1 to receivers do
          Alcotest.(check bool) "adoptable" true
            (Types.validate_version registry ~f:1 ~n:4 ~anchor v
            = Types.Adoptable)
        done);
    sha256_calls ()
  in
  let once = validate_at ~receivers:1 (decode_version v) in
  let shared = validate_at ~receivers:7 (decode_version v) in
  Alcotest.(check bool) "a validation hashes" true (once > 0);
  Alcotest.(check int) "7 receivers of one decoded version hash once" once
    shared

let test_verdict_keyed_by_registry () =
  let chain = build_chain [ 0; 1; 2; 3; 0; 1 ] in
  let v =
    decode_version
      (Types.make_version ~recovery_round:4 ~origin:0
         (List.filteri (fun i _ -> i >= 2) chain))
  in
  let other = Fl_crypto.Signature.create_registry ~seed:"other" ~n:4 in
  let check registry =
    Types.validate_version registry ~f:1 ~n:4 ~anchor:(anchor_of chain) v
  in
  Alcotest.(check bool) "valid under the signing registry" true
    (check registry = Types.Adoptable);
  Alcotest.(check bool) "not reused under another registry" true
    (check other = Types.Invalid);
  Alcotest.(check bool) "recomputed for the signing registry" true
    (check registry = Types.Adoptable)

let prop_chain_versions_valid =
  QCheck.Test.make ~name:"types: honest suffixes always validate" ~count:50
    QCheck.(pair small_nat (int_bound 100))
    (fun (len, _salt) ->
      let len = 6 + (len mod 10) in
      let proposers = List.init len (fun i -> i mod 4) in
      let chain = build_chain proposers in
      let r = len - 2 in
      let s = max 0 (r - 2) in
      let suffix = List.filteri (fun i _ -> i >= s) chain in
      Types.validate_version registry ~f:1 ~n:4 ~anchor:(anchor_of chain)
        (Types.make_version ~recovery_round:r ~origin:0 suffix)
      = Types.Adoptable)

let suite =
  [ Alcotest.test_case "timer backoff" `Quick test_timer_backoff_and_recovery;
    Alcotest.test_case "timer tracks delay" `Quick test_timer_tracks_delay;
    Alcotest.test_case "timer bounds" `Quick test_timer_bounds;
    Alcotest.test_case "detector threshold" `Quick
      test_detector_suspects_after_threshold;
    Alcotest.test_case "detector cap/invalidate" `Quick
      test_detector_cap_and_invalidate;
    Alcotest.test_case "detector delivery clears" `Quick
      test_detector_delivery_clears;
    Alcotest.test_case "detector disabled" `Quick test_detector_disabled;
    Alcotest.test_case "rotation round robin" `Quick test_rotation_round_robin;
    Alcotest.test_case "rotation skips" `Quick test_rotation_skips_recent;
    Alcotest.test_case "rotation permutation" `Quick
      test_rotation_permutation_properties;
    Alcotest.test_case "signed header roundtrip" `Quick
      test_signed_header_roundtrip;
    Alcotest.test_case "proof validity" `Quick test_proof_validity;
    Alcotest.test_case "version validation" `Quick test_version_validation;
    Alcotest.test_case "version rotation rule" `Quick
      test_version_rejects_rotation_violation;
    Alcotest.test_case "version tampered body" `Quick
      test_version_rejects_tampered_body;
    Alcotest.test_case "version checked once per value" `Quick
      test_version_checked_once;
    Alcotest.test_case "version verdict keyed by registry" `Quick
      test_verdict_keyed_by_registry;
    QCheck_alcotest.to_alcotest prop_chain_versions_valid ]
