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

(* ---------- zero runs and combine (zlib's crc32_combine) ----------

   Appending [n] zero bytes multiplies the running state by x^(8n)
   modulo the polynomial, and [combine (digest a) (digest b) (length b)
   = digest (a ^ b)] is that same multiplication applied to [digest a]
   before xoring in [digest b]. Both take O(log n) carry-less 32-bit
   multiplications (the C kernel's [multmodp] over its table of
   x^(2^k)) and read no byte: a frame whose body holds zero runs gets
   its CRC without the zeros ever being written, and a frame assembled
   from already-checksummed pieces gets its CRC in constant time per
   piece. *)

external zeros :
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "fl_crc32_zeros_byte" "fl_crc32_zeros"
[@@noalloc]

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.update";
  run s pos len (crc lxor 0xFFFFFFFF) lxor 0xFFFFFFFF

let update_zeros crc n =
  if n < 0 then invalid_arg "Crc32.update_zeros";
  zeros (crc lxor 0xFFFFFFFF) n lxor 0xFFFFFFFF

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  zeros (crc1 land 0xFFFFFFFF) len2 lxor (crc2 land 0xFFFFFFFF)
