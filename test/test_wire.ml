open Fl_wire

let test_roundtrip_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xab;
  Codec.Writer.u16 w 0xbeef;
  Codec.Writer.u32 w 0xdeadbeef;
  Codec.Writer.u64 w 0x1234_5678_9abc_def0;
  Codec.Writer.bool w true;
  Codec.Writer.varint w 300;
  Codec.Writer.bytes w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 0xab (Codec.Reader.u8 r);
  Alcotest.(check int) "u16" 0xbeef (Codec.Reader.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Codec.Reader.u32 r);
  Alcotest.(check int) "u64" 0x1234_5678_9abc_def0 (Codec.Reader.u64 r);
  Alcotest.(check bool) "bool" true (Codec.Reader.bool r);
  Alcotest.(check int) "varint" 300 (Codec.Reader.varint r);
  Alcotest.(check string) "bytes" "hello" (Codec.Reader.bytes r);
  Alcotest.(check bool) "consumed" true (Codec.Reader.at_end r)

let test_underflow () =
  let r = Codec.Reader.of_string "\x01" in
  ignore (Codec.Reader.u8 r);
  Alcotest.check_raises "underflow" Codec.Reader.Underflow (fun () ->
      ignore (Codec.Reader.u8 r))

let test_varint_size () =
  List.iter
    (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w v;
      Alcotest.(check int)
        (Printf.sprintf "size of %d" v)
        (Codec.Writer.length w) (Codec.varint_size v))
    [ 0; 1; 127; 128; 16383; 16384; 1 lsl 40 ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"codec: varint roundtrip" ~count:500
    QCheck.(map (fun v -> v land max_int) int)
    (fun v ->
      let w = Codec.Writer.create () in
      Codec.Writer.varint w v;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      Codec.Reader.varint r = v && Codec.Reader.at_end r)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"codec: length-prefixed strings roundtrip"
    ~count:200
    QCheck.(list string)
    (fun ss ->
      let w = Codec.Writer.create () in
      List.iter (Codec.Writer.bytes w) ss;
      let r = Codec.Reader.of_string (Codec.Writer.contents w) in
      List.for_all (fun s -> String.equal (Codec.Reader.bytes r) s) ss
      && Codec.Reader.at_end r)

(* [combine] must equal a digest of the concatenation for every split,
   empty halves and lengths off the 8-byte stride included. *)
let combine_holds s k =
  let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
  Crc32.combine (Crc32.digest_int a) (Crc32.digest_int b) (String.length b)
  = Crc32.digest_int s

let prop_crc32_combine =
  QCheck.Test.make ~name:"crc32: combine = digest of concatenation"
    ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, k) -> combine_holds s (k mod (String.length s + 1)))

(* Published CRC-32/IEEE check values: the "123456789" check value of
   the CRC catalogues, the empty string, and the pangram widely used as
   a test vector. *)
let crc32_vectors =
  [ ("123456789", 0xCBF43926);
    ("", 0);
    ("The quick brown fox jumps over the lazy dog", 0x414FA339) ]

let test_crc32_combine_edges () =
  List.iter
    (fun (s, crc) ->
      Alcotest.(check int) (Printf.sprintf "digest %S" s) crc
        (Crc32.digest_int s);
      let padded = "xy" ^ s ^ "z" in
      Alcotest.(check int) (Printf.sprintf "digest_int_sub %S" s) crc
        (Crc32.digest_int_sub padded ~pos:2 ~len:(String.length s));
      Alcotest.(check int) (Printf.sprintf "digest_int_bytes_sub %S" s) crc
        (Crc32.digest_int_bytes_sub (Bytes.of_string padded) ~pos:2
           ~len:(String.length s));
      for k = 0 to String.length s do
        Alcotest.(check bool) (Printf.sprintf "%S split %d" s k) true
          (combine_holds s k)
      done)
    crc32_vectors;
  let s = String.init 4099 (fun i -> Char.chr ((i * 131) land 0xff)) in
  List.iter
    (fun (len, k) ->
      Alcotest.(check bool)
        (Printf.sprintf "len %d split %d" len k)
        true
        (combine_holds (String.sub s 0 len) k))
    [ (0, 0); (1, 0); (1, 1); (7, 0); (7, 7); (9, 3); (17, 9); (4099, 0);
      (4099, 4099); (4099, 2051); (4099, 4091) ];
  Alcotest.(check int) "empty b is the identity" (Crc32.digest_int "abc")
    (Crc32.combine (Crc32.digest_int "abc") (Crc32.digest_int "") 0)

(* Bit-at-a-time CRC-32, straight from the definition: the reference
   the slice-by-16 kernel must agree with. *)
let crc32_bitwise s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

(* Every start offset mod 16 against every tail length: the kernel
   takes 16 bytes a step, then finishes byte by byte. *)
let test_crc32_offsets_and_tails () =
  let s = String.init 80 (fun i -> Char.chr ((i * 197 + 11) land 0xff)) in
  for pos = 0 to 15 do
    for len = 0 to 48 do
      Alcotest.(check int)
        (Printf.sprintf "pos %d len %d" pos len)
        (crc32_bitwise s ~pos ~len)
        (Crc32.digest_int_sub s ~pos ~len)
    done
  done

let prop_crc32_bitwise =
  QCheck.Test.make ~name:"crc32: kernel = bit-at-a-time CRC at every offset"
    ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 2048)) small_nat)
    (fun (s, k) ->
      let n = String.length s in
      List.for_all
        (fun pos ->
          pos > n
          ||
          let len = (n - pos) - (k mod (min 16 (n - pos) + 1)) in
          Crc32.digest_int_sub s ~pos ~len = crc32_bitwise s ~pos ~len
          && Crc32.digest_int_bytes_sub (Bytes.of_string s) ~pos ~len
             = crc32_bitwise s ~pos ~len)
        (List.init 16 Fun.id))

(* Bytes made of literal parts and zero runs (some of length 0), at an
   offset inside a larger buffer: the piece must give back exactly
   those bytes, and [drop] at every cut exactly the suffix. *)
let prop_sparse_roundtrip =
  QCheck.Test.make ~name:"sparse: compact then expand = the bytes"
    ~count:300
    QCheck.(
      pair small_nat
        (list_of_size Gen.(0 -- 8)
           (pair (string_of_size Gen.(0 -- 20)) (int_range 0 600))))
    (fun (lead, parts) ->
      let body =
        String.concat ""
          (List.map (fun (lit, z) -> lit ^ String.make z '\000') parts)
      in
      let src = Bytes.of_string (String.make lead 'x' ^ body ^ "tail") in
      let runs = ref [] and at = ref lead in
      List.iter
        (fun (lit, z) ->
          runs := (!at + String.length lit, z) :: !runs;
          at := !at + String.length lit + z)
        parts;
      let runs = List.rev !runs in
      let piece =
        Sparse.compact src ~pos:lead ~len:(String.length body) (fun mark ->
            List.iter (fun (at, n) -> mark at n) runs)
      in
      Sparse.length piece = String.length body
      && String.equal (Sparse.to_string piece) body
      && List.for_all
           (fun (at, n) ->
             let cut = at + n - lead in
             String.equal
               (Sparse.to_string (Sparse.drop piece cut))
               (String.sub body cut (String.length body - cut)))
           runs)

let test_sparse_bad_cut () =
  let src = Bytes.of_string "abc\000\000\000def" in
  let piece = Sparse.compact src ~pos:0 ~len:9 (fun mark -> mark 3 3) in
  Alcotest.(check string) "suffix" "def" (Sparse.to_string (Sparse.drop piece 6));
  Alcotest.check_raises "inside a literal"
    (Invalid_argument "Sparse.drop: not a cut") (fun () ->
      ignore (Sparse.drop piece 2));
  Alcotest.check_raises "run out of order" (Invalid_argument "Sparse.compact: run")
    (fun () ->
      ignore
        (Sparse.compact src ~pos:0 ~len:9 (fun mark ->
             mark 3 3;
             mark 1 1)))

let suite =
  [ Alcotest.test_case "scalar roundtrip" `Quick test_roundtrip_scalars;
    Alcotest.test_case "underflow" `Quick test_underflow;
    Alcotest.test_case "varint size" `Quick test_varint_size;
    Alcotest.test_case "crc32 combine edges" `Quick test_crc32_combine_edges;
    Alcotest.test_case "crc32 offsets and tails" `Quick
      test_crc32_offsets_and_tails;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_crc32_combine;
    QCheck_alcotest.to_alcotest prop_crc32_bitwise;
    Alcotest.test_case "sparse cuts and runs" `Quick test_sparse_bad_cut;
    QCheck_alcotest.to_alcotest prop_sparse_roundtrip ]
