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

let suite =
  [ Alcotest.test_case "scalar roundtrip" `Quick test_roundtrip_scalars;
    Alcotest.test_case "underflow" `Quick test_underflow;
    Alcotest.test_case "varint size" `Quick test_varint_size;
    Alcotest.test_case "crc32 combine edges" `Quick test_crc32_combine_edges;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_crc32_combine ]
