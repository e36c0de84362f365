(* The byte loop is a C kernel (fl_crc32_stubs.c): slice-by-16 over
   bytes assembled in little-endian order, so it is byte-order neutral
   with no intrinsics. A 63-bit OCaml int carries the 32-bit state
   across the boundary, and the stub is [@@noalloc] with untagged
   arguments, so a call boxes nothing (a boxed per-byte loop once
   dominated frame encode, decode and WAL sealing for block-sized
   bodies). Its tables are filled eagerly, by [init_tables] below at
   module initialisation: a table built lazily on first use can be
   forced by two sweep domains at once (an OCaml [Lazy] raises
   [CamlinternalLazy.Undefined]; an unguarded C flag races). *)

external init_tables : unit -> unit = "fl_crc32_init"

let () = init_tables ()

(* [crc] is the running 32-bit state *without* the final xor (i.e.
   already conditioned), returned the same way. The caller has
   validated [pos, pos+len). *)
external run :
  string ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "fl_crc32_run_byte" "fl_crc32_run"
[@@noalloc]

let digest_int_sub s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.digest_int_sub";
  run s pos len 0xFFFFFFFF lxor 0xFFFFFFFF

let digest_int s = digest_int_sub s ~pos:0 ~len:(String.length s)

(* Digest over a [Bytes.t] region — the in-place sealing path, where
   the body still lives in a writer's scratch buffer. Safe view: the
   buffer is not mutated while the digest runs. *)
let digest_int_bytes_sub b ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length b - pos then
    invalid_arg "Crc32.digest_int_bytes_sub";
  run (Bytes.unsafe_to_string b) pos len 0xFFFFFFFF lxor 0xFFFFFFFF

(* ---------- combine (zlib's crc32_combine) ----------

   [combine (digest a) (digest b) (length b) = digest (a ^ b)] without
   touching the bytes again: appending [len] bytes multiplies the first
   CRC by x^(8·len) modulo the polynomial, which takes O(log len)
   carry-less 32-bit multiplications using a table of x^(2^k). This is
   what lets a frame assembled from already-checksummed pieces get its
   CRC in constant time per piece. *)

let poly = 0xEDB88320

(* a·b modulo the polynomial, both in reflected bit order *)
let multmodp a b =
  let p = ref 0 and b = ref b and m = ref (1 lsl 31) in
  while !m <> 0 do
    if a land !m <> 0 then begin
      p := !p lxor !b;
      if a land (!m - 1) = 0 then m := 0
    end;
    if !m <> 0 then begin
      m := !m lsr 1;
      b := if !b land 1 = 1 then (!b lsr 1) lxor poly else !b lsr 1
    end
  done;
  !p

(* x2n_table.(k) = x^(2^k) mod p *)
let x2n_table =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30 (* x^1 *);
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n·2^k) mod p *)
let x2nmodp n k =
  let p = ref (1 lsl 31) (* x^0 *) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 = 1 then p := multmodp x2n_table.(!k land 31) !p;
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  multmodp (x2nmodp len2 3) (crc1 land 0xFFFFFFFF) lxor (crc2 land 0xFFFFFFFF)
