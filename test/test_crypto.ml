open Fl_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.encode actual)

(* FIPS 180-4 / NIST CAVP vectors. *)
let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  let s = "the quick brown fox jumps over the lazy dog, repeatedly" in
  let one_shot = Sha256.digest s in
  (* Feed in awkward chunk sizes crossing the 64-byte block boundary. *)
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length s do
        let len = min chunk (String.length s - !pos) in
        Sha256.feed_string ctx ~off:!pos ~len s;
        pos := !pos + len
      done;
      Alcotest.(check string)
        (Printf.sprintf "chunk %d" chunk)
        (Hex.encode one_shot)
        (Hex.encode (Sha256.finalize ctx)))
    [ 1; 3; 7; 13; 63; 64; 65 ]

(* RFC 4231 test case 2. *)
let test_hmac_vector () =
  check_hex "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_long_key () =
  (* Keys longer than the block size are pre-hashed; check against
     RFC 4231 test case 6. *)
  check_hex "rfc4231 tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hmac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff binary" in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s));
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"))

let test_signature_scheme () =
  let reg = Signature.create_registry ~seed:"test" ~n:4 in
  let s = Signature.sign reg ~signer:2 "hello" in
  Alcotest.(check bool) "verifies" true
    (Signature.verify reg ~signer:2 ~msg:"hello" s);
  Alcotest.(check bool) "wrong signer" false
    (Signature.verify reg ~signer:1 ~msg:"hello" s);
  Alcotest.(check bool) "wrong msg" false
    (Signature.verify reg ~signer:2 ~msg:"hellO" s);
  Alcotest.(check bool) "out of range" false
    (Signature.verify reg ~signer:7 ~msg:"hello" s);
  (* Registries with different seeds are independent PKIs. *)
  let reg2 = Signature.create_registry ~seed:"other" ~n:4 in
  Alcotest.(check bool) "cross registry" false
    (Signature.verify reg2 ~signer:2 ~msg:"hello" s)

let test_cost_model () =
  let m = Cost_model.default in
  let small = Cost_model.sign_cost m ~bytes:0 in
  let big = Cost_model.sign_cost m ~bytes:1_000_000 in
  Alcotest.(check bool) "sign cost grows with payload" true (big > small);
  Alcotest.(check bool) "constant term present" true
    (small >= int_of_float m.Cost_model.sign_const_ns);
  let sps1 = Cost_model.signatures_per_second m ~payload_bytes:5120 ~cores:1 in
  let sps4 = Cost_model.signatures_per_second m ~payload_bytes:5120 ~cores:4 in
  Alcotest.(check (float 1e-6)) "linear in cores" (4.0 *. sps1) sps4

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex: decode . encode = id" ~count:200 QCheck.string
    (fun s -> String.equal (Hex.decode (Hex.encode s)) s)

let prop_sha_incremental =
  QCheck.Test.make ~name:"sha256: split feeding agrees with one-shot"
    ~count:100
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let split = if String.length s = 0 then 0 else k mod String.length s in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx ~off:0 ~len:split s;
      Sha256.feed_string ctx ~off:split ~len:(String.length s - split) s;
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

let suite =
  [ Alcotest.test_case "sha256 NIST vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_vector;
    Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "signatures" `Quick test_signature_scheme;
    Alcotest.test_case "cost model" `Quick test_cost_model;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_sha_incremental ]
