(* The model-checking layer's own obligations:

   - DPOR soundness: on a config small enough to enumerate unreduced,
     the reduced enumeration visits exactly the same distinct final
     states — the commutativity argument (deliveries to different
     nodes commute) loses no behaviors;
   - a pinned regression on the exhaustive interleaving/decision
     counts of the canonical n=4 f=1 2-round config — if these move,
     the branch-point structure changed and the bound must be
     re-derived;
   - enumeration is a pure function of the scenario (replay rests on
     this);
   - fork accountability under exhaustive scheduling: every explored
     interleaving of a two-equivocator split yields wire-true
     evidence naming both, and nothing else;
   - qcheck properties: the detached evidence codec round-trips and
     rejects mutation, evidence validity is registry-bound, and
     across 200 random adversarial plans accountability never blames
     a correct node. *)

open Fl_chain
open Fl_check
module Types = Fl_fireledger.Types

let registry = Fl_crypto.Signature.create_registry ~seed:"mc" ~n:4

(* ---------- DPOR soundness ---------- *)

let test_dpor_soundness () =
  let sc = Mc.scenario ~n:3 ~rounds:1 ~depth:4 () in
  let dpor = Mc.enumerate Mc.Dpor sc in
  let naive = Mc.enumerate Mc.Naive sc in
  Alcotest.(check bool) "dpor clean" false (Mc.failed dpor);
  Alcotest.(check bool) "naive clean" false (Mc.failed naive);
  Alcotest.(check bool) "neither capped" false
    (dpor.Mc.capped || naive.Mc.capped);
  Alcotest.(check bool) "dpor explores strictly fewer schedules" true
    (dpor.Mc.interleavings < naive.Mc.interleavings);
  (* the heart of the soundness claim: same reachable final states *)
  Alcotest.(check (list string))
    "reduced enumeration visits the same distinct final states"
    naive.Mc.final_states dpor.Mc.final_states

(* ---------- pinned exhaustive counts ---------- *)

let test_pinned_counts () =
  let sc = Mc.scenario ~n:4 ~rounds:2 ~depth:6 () in
  let dpor = Mc.enumerate Mc.Dpor sc in
  let naive = Mc.enumerate Mc.Naive sc in
  Alcotest.(check int) "dpor interleavings" 3 dpor.Mc.interleavings;
  Alcotest.(check int) "dpor decisions" 159 dpor.Mc.decisions;
  Alcotest.(check int) "naive interleavings" 720 naive.Mc.interleavings;
  Alcotest.(check int) "naive decisions" 38_160 naive.Mc.decisions;
  Alcotest.(check bool) "exhaustive (cap not hit)" false
    (dpor.Mc.capped || naive.Mc.capped);
  Alcotest.(check int) "one agreed-upon final state" 1
    (List.length naive.Mc.final_states);
  Alcotest.(check (list string)) "dpor reaches it" naive.Mc.final_states
    dpor.Mc.final_states;
  Alcotest.(check int) "no violations across the full space" 0
    (dpor.Mc.total_violations + naive.Mc.total_violations)

(* ---------- determinism ---------- *)

let test_determinism () =
  let sc = Mc.scenario ~n:3 ~rounds:1 ~drops:1 ~depth:4 () in
  let a = Mc.enumerate Mc.Dpor sc in
  let b = Mc.enumerate Mc.Dpor sc in
  Alcotest.(check int) "interleavings" a.Mc.interleavings b.Mc.interleavings;
  Alcotest.(check int) "decisions" a.Mc.decisions b.Mc.decisions;
  Alcotest.(check int) "dropped" a.Mc.dropped b.Mc.dropped;
  Alcotest.(check (list string)) "final states" a.Mc.final_states
    b.Mc.final_states

(* ---------- fork accountability over the explored space ---------- *)

let test_fork_accountability () =
  let sc =
    Mc.scenario ~n:4 ~rounds:5 ~equivocators:[ 1; 2 ]
      ~splits:[ Some ([ 0; 1 ], [ 2; 3 ]) ]
      ~depth:3 ~budget_ms:800 ()
  in
  let s = Mc.enumerate Mc.Dpor sc in
  Alcotest.(check bool) "explored at least one schedule" true
    (s.Mc.interleavings > 0);
  Alcotest.(check (list int)) "evidence names exactly the equivocators"
    [ 1; 2 ] s.Mc.accused;
  Alcotest.(check int) "evidence collected in every schedule"
    s.Mc.interleavings s.Mc.evidence_runs;
  Alcotest.(check int) "zero violations (in particular no false accusation)"
    0 s.Mc.total_violations

(* ---------- evidence codec properties ---------- *)

let gen_hash =
  QCheck.Gen.(
    let+ s = string_size (int_range 0 8) in
    Fl_crypto.Sha256.digest s)

let gen_tx =
  QCheck.Gen.(
    let* id = int_range 0 1_000_000 in
    let+ size = int_range 1 200 in
    Tx.create ~id ~size)

let gen_evidence =
  QCheck.Gen.(
    let* accused = int_range 0 3 in
    let* round = int_range 0 1_000 in
    let* prev_hash = gen_hash in
    let* txs_a = array_size (int_range 0 4) gen_tx in
    let+ txs_b = array_size (int_range 0 4) gen_tx in
    let sign txs =
      let b = Block.create ~round ~proposer:accused ~prev_hash txs in
      Types.sign_header registry ~signer:accused b.Block.header
    in
    Types.make_evidence ~accused (sign txs_a) (sign txs_b))

let arb_evidence =
  QCheck.make
    ~print:(fun ev ->
      Fl_crypto.Hex.encode (Fl_wire.Sparse.to_string (Types.encode_evidence ev)))
    gen_evidence

let prop_evidence_roundtrip =
  QCheck.Test.make ~name:"mc: evidence codec roundtrip" ~count:200
    arb_evidence (fun ev ->
      (* detached frame *)
      Types.decode_evidence (Types.encode_evidence ev) = Some ev
      && (* in-body writer/reader, full consumption *)
      let w = Fl_wire.Codec.Writer.create () in
      Types.write_evidence w ev;
      let r = Fl_wire.Codec.Reader.of_string (Fl_wire.Codec.Writer.contents w) in
      Types.read_evidence r = ev && Fl_wire.Codec.Reader.at_end r)

let prop_evidence_registry_bound =
  QCheck.Test.make ~name:"mc: evidence validity is registry-bound" ~count:100
    arb_evidence (fun ev ->
      let distinct =
        not
          (Header.equal ev.Types.first.Types.header
             ev.Types.second.Types.header)
      in
      let other = Fl_crypto.Signature.create_registry ~seed:"mc-other" ~n:4 in
      (* a genuinely conflicting pair verifies under the signing
         registry and under no other *)
      (not distinct) || Types.evidence_valid registry ev
      && not (Types.evidence_valid other ev))

let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
  Bytes.to_string b

let prop_evidence_mutation_rejected =
  QCheck.Test.make ~name:"mc: mutated evidence frames are rejected"
    ~count:200
    QCheck.(pair arb_evidence (QCheck.make Gen.(int_range 0 10_000)))
    (fun (ev, off_seed) ->
      let s = Fl_wire.Sparse.to_string (Types.encode_evidence ev) in
      let off = off_seed mod String.length s in
      match Types.decode_evidence (Fl_wire.Sparse.of_string (flip s off)) with
      | None -> true
      | Some _ -> off < 6 (* tag-byte reframing; body flips must fail *))

let prop_evidence_random_bytes =
  QCheck.Test.make ~name:"mc: random bytes never decode as evidence"
    ~count:300
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      try Types.decode_evidence (Fl_wire.Sparse.of_string s) = None
      with e ->
        QCheck.Test.fail_reportf "decode_evidence raised %s"
          (Printexc.to_string e))

(* ---------- accountability never blames a correct node ---------- *)

let test_no_false_accusations () =
  (* 200 seed-derived adversarial plans (the explorer's own fault
     space: equivocators, crashes, partitions, drops). Crashed nodes
     may legitimately double-sign across incarnations, so the allowed
     accused set is the faulty set, not just the Byzantine one. *)
  for seed = 1 to 200 do
    let r = Explorer.run_seed ~budget_ms:300 seed in
    let faulty = Plan.faulty r.Explorer.plan in
    List.iter
      (fun a ->
        if not (List.mem a faulty) then
          Alcotest.failf "seed %d (%s): evidence accuses correct node %d"
            seed
            (Plan.to_string r.Explorer.plan)
            a)
      r.Explorer.accused;
    List.iter
      (fun v ->
        if
          List.mem v.Oracle.oracle
            [ "false-accusation"; "evidence-invalid"; "evidence-codec";
              "evidence-malformed" ]
        then
          Alcotest.failf "seed %d: %s: %s" seed v.Oracle.oracle
            v.Oracle.detail)
      r.Explorer.violations
  done

let suite =
  [ Alcotest.test_case "dpor soundness vs naive enumeration" `Quick
      test_dpor_soundness;
    Alcotest.test_case "pinned exhaustive counts (n=4 f=1 2 rounds)" `Slow
      test_pinned_counts;
    Alcotest.test_case "enumeration is deterministic" `Quick
      test_determinism;
    Alcotest.test_case "fork accountability over explored space" `Quick
      test_fork_accountability;
    QCheck_alcotest.to_alcotest prop_evidence_roundtrip;
    QCheck_alcotest.to_alcotest prop_evidence_registry_bound;
    QCheck_alcotest.to_alcotest prop_evidence_mutation_rejected;
    QCheck_alcotest.to_alcotest prop_evidence_random_bytes;
    Alcotest.test_case "no false accusations across 200 plans" `Slow
      test_no_false_accusations ]
