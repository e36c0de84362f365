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

(* Layouts of literal parts and zero runs, written through a writer:
   run lengths 0, 1, 2^k and 2^k +- 1 up to 64 KiB, and now and then
   one above 1 MiB. *)
let gen_run =
  QCheck.Gen.(
    frequency
      [ (20, oneofl [ 0; 1; 2; 3; 7; 8; 9; 15; 16; 17; 255; 256; 257 ]);
        (10, oneofl [ 511; 512; 513; 4095; 4096; 4097; 65535; 65536; 65537 ]);
        (1, oneofl [ (1 lsl 20) - 1; (1 lsl 20) + 1; (1 lsl 21) + 3 ]) ])

let arb_layout =
  QCheck.make
    ~print:
      QCheck.Print.(list (pair (fun s -> string_of_int (String.length s)) int))
    QCheck.Gen.(list_size (0 -- 8) (pair (string_size (0 -- 20)) gen_run))

(* The layout written by a writer, and the bytes it stands for. *)
let write_layout parts =
  let w = Codec.Writer.create ~capacity:16 () in
  List.iter
    (fun (lit, z) ->
      Codec.Writer.raw w lit;
      Codec.Writer.pad w z)
    parts;
  ( w,
    String.concat ""
      (List.map (fun (lit, z) -> lit ^ String.make z '\000') parts) )

let prop_sparse_roundtrip =
  QCheck.Test.make ~name:"sparse: written then expanded = the bytes"
    ~count:300 arb_layout (fun parts ->
      let w, body = write_layout parts in
      let piece = Codec.Writer.piece w in
      let n = String.length body in
      Sparse.length piece = n
      && Codec.Writer.length w = n
      && String.equal (Sparse.to_string piece) body
      && String.equal (Codec.Writer.contents w) body
      && String.equal (Sparse.to_string (Sparse.concat [ piece ])) body
      && List.for_all
           (fun k ->
             let pos = k * n / 7 in
             let len = (n - pos) * k / 9 in
             String.equal
               (Sparse.to_string (Sparse.sub piece ~pos ~len))
               (String.sub body pos len)
             && String.equal
                  (Sparse.to_string
                     (Sparse.concat
                        [ Sparse.sub piece ~pos:0 ~len:pos;
                          Sparse.sub piece ~pos ~len:(n - pos) ]))
                  body)
           (List.init 8 Fun.id)
      &&
      (* a reader over a window cut at every edge of the layout, run
         ends included *)
      let edges =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) (lit, z) ->
                  let a = at + String.length lit in
                  (a + z, (a + z) :: a :: acc))
                (0, [ 0 ]) parts))
      in
      List.for_all
        (fun b ->
          let r = Codec.Reader.of_piece (Sparse.sub piece ~pos:b ~len:(n - b)) in
          let k = min 64 (n - b) in
          let got = String.init k (fun _ -> Char.chr (Codec.Reader.u8 r)) in
          String.equal got (String.sub body b k)
          && (Codec.Reader.skip r (n - b - k);
              Codec.Reader.at_end r))
        edges)

(* The CRC of a piece and of any window of it, run by run, against the
   dense kernel over the written-out bytes. *)
let prop_sparse_crc =
  QCheck.Test.make ~name:"sparse: piece CRC = CRC of its bytes" ~count:300
    arb_layout (fun parts ->
      let w, body = write_layout parts in
      let piece = Codec.Writer.piece w in
      let n = String.length body in
      Sparse.crc piece = Crc32.digest_int body
      && Codec.Writer.crc w ~pos:0 ~len:n = Crc32.digest_int body
      && List.for_all
           (fun k ->
             let pos = k * n / 5 in
             let len = (n - pos) * k / 6 in
             let want = Crc32.digest_int_sub body ~pos ~len in
             Sparse.crc (Sparse.sub piece ~pos ~len) = want
             && Codec.Writer.crc w ~pos ~len = want)
           (List.init 6 Fun.id))

let test_crc_zero_runs () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "%d zeros" n)
        (Crc32.digest_int (String.make n '\000'))
        (Crc32.update_zeros (Crc32.digest_int "") n);
      Alcotest.(check int)
        (Printf.sprintf "abc then %d zeros" n)
        (Crc32.digest_int ("abc" ^ String.make n '\000'))
        (Crc32.update_zeros (Crc32.digest_int "abc") n))
    [ 0; 1; 2; 3; 4; 5; 8; 15; 16; 17; 512; 4096; (1 lsl 20) + 1 ]

(* A reader over a piece returns exactly what a reader over its
   written-out bytes returns, exceptions included, for any sequence of
   primitives — the reads that straddle a run among them. *)
type op =
  | U8
  | U16
  | U32
  | U64
  | Varint
  | Raw of int
  | View of int
  | Skip of int
  | Sub of int
  | Piece of int
  | Expect of int

let gen_op =
  QCheck.Gen.(
    let n = oneof [ int_range 0 40; gen_run ] in
    oneof
      [ return U8; return U16; return U32; return U64; return Varint;
        map (fun n -> Raw n) n; map (fun n -> View n) n;
        map (fun n -> Skip n) n; map (fun n -> Sub n) n;
        map (fun n -> Piece n) n; map (fun n -> Expect n) (int_range 0 12) ])

let show_op = function
  | U8 -> "u8" | U16 -> "u16" | U32 -> "u32" | U64 -> "u64"
  | Varint -> "varint"
  | Raw n -> Printf.sprintf "raw %d" n
  | View n -> Printf.sprintf "view %d" n
  | Skip n -> Printf.sprintf "skip %d" n
  | Sub n -> Printf.sprintf "sub %d" n
  | Piece n -> Printf.sprintf "piece %d" n
  | Expect n -> Printf.sprintf "expect %d" n

(* One primitive's observable result as a string; [body] is the
   written-out reference, [off] the reader's offset in it. *)
let run_op body off r op =
  let digest r = Printf.sprintf "%d:%d" (Codec.Reader.remaining r) (Codec.Reader.u8 r) in
  match
    match op with
    | U8 -> string_of_int (Codec.Reader.u8 r)
    | U16 -> string_of_int (Codec.Reader.u16 r)
    | U32 -> string_of_int (Codec.Reader.u32 r)
    | U64 -> string_of_int (Codec.Reader.u64 r)
    | Varint -> string_of_int (Codec.Reader.varint r)
    | Raw n -> Codec.Reader.raw r n
    | View n -> Codec.Slice.to_string (Codec.Reader.view r n)
    | Skip n ->
        Codec.Reader.skip r n;
        ""
    | Sub n ->
        let s = Codec.Reader.sub r n in
        (try digest s with Codec.Reader.Underflow -> "empty")
    | Piece n -> Sparse.to_string (Codec.Reader.piece r n)
    | Expect n ->
        let want =
          if off + n <= String.length body then String.sub body off n
          else String.make n 'x'
        in
        Codec.Reader.expect_raw r want;
        "ok"
  with
  | v -> v ^ "/" ^ string_of_int (Codec.Reader.remaining r)
  | exception Codec.Reader.Underflow -> "underflow"
  | exception Codec.Malformed m -> "malformed " ^ m

let prop_reader_piece =
  QCheck.Test.make ~name:"reader: over a piece = over its bytes" ~count:500
    QCheck.(
      pair arb_layout
        (make ~print:Print.(list show_op) Gen.(list_size (1 -- 12) gen_op)))
    (fun (parts, ops) ->
      let w, body = write_layout parts in
      let over_piece = Codec.Reader.of_piece (Codec.Writer.piece w) in
      let over_bytes = Codec.Reader.of_string body in
      List.for_all
        (fun op ->
          let off = String.length body - Codec.Reader.remaining over_bytes in
          let a = run_op body off over_piece op in
          let b = run_op body off over_bytes op in
          String.equal a b
          || QCheck.Test.fail_reportf "%s: piece %S, bytes %S" (show_op op) a b)
        ops)

let test_sparse_bad_cut () =
  let w = Codec.Writer.create () in
  Codec.Writer.raw w "abc";
  Codec.Writer.pad w 3;
  Codec.Writer.raw w "def";
  let piece = Codec.Writer.piece w in
  Alcotest.(check string) "suffix" "def"
    (Sparse.to_string (Sparse.sub piece ~pos:6 ~len:3));
  Alcotest.(check string) "inside the run" "\000\000d"
    (Sparse.to_string (Sparse.sub piece ~pos:4 ~len:3));
  Alcotest.check_raises "past the end" (Invalid_argument "Sparse.sub")
    (fun () -> ignore (Sparse.sub piece ~pos:7 ~len:3));
  Alcotest.check_raises "patch over a run" (Invalid_argument "Codec.patch_u32")
    (fun () -> Codec.Writer.patch_u32 w 1 0);
  Codec.Writer.patch_u8 w 7 (Char.code 'E');
  Alcotest.(check string) "patch after a run" "abc\000\000\000dEf"
    (Codec.Writer.contents w)

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
    QCheck_alcotest.to_alcotest prop_sparse_roundtrip;
    QCheck_alcotest.to_alcotest prop_sparse_crc;
    Alcotest.test_case "crc32 zero runs" `Quick test_crc_zero_runs;
    QCheck_alcotest.to_alcotest prop_reader_piece ]
