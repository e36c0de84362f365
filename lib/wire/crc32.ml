(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the frame
   checksum of the wire envelope and of the write-ahead log. On the
   wire it is what turns a byte-level fault (bit flip, truncation)
   into a detected, droppable frame instead of silently different
   protocol state; on the WAL it is what lets replay detect and
   discard a torn tail instead of applying garbage.

   Implementation: slice-by-8 over plain OCaml [int]s (the CRC state
   fits 32 bits, so a 63-bit int holds every intermediate). The
   previous per-byte [Int32] loop cost ~6 ns/byte of boxed-int32
   operations and dominated frame encode, decode and WAL sealing for
   block-sized bodies; this form is pure unboxed arithmetic. The
   eight 256-entry tables live in one flat array so each step is a
   single bounds-free load. They are built eagerly at module
   initialisation: a lazy table forced for the first time by two
   sweep domains at once raises [CamlinternalLazy.Undefined]. *)

let poly = 0xEDB88320

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let p = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(p land 0xff) lxor (p lsr 8)
    done
  done;
  t

(* Core loop over an implicit string view. The caller has validated
   [pos, pos+len); [crc] is the running 32-bit state *without* the
   final xor (i.e. already conditioned), returned the same way. *)
let run t s ~pos ~len crc =
  let crc = ref crc in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    let b0 = Char.code (String.unsafe_get s j)
    and b1 = Char.code (String.unsafe_get s (j + 1))
    and b2 = Char.code (String.unsafe_get s (j + 2))
    and b3 = Char.code (String.unsafe_get s (j + 3))
    and b4 = Char.code (String.unsafe_get s (j + 4))
    and b5 = Char.code (String.unsafe_get s (j + 5))
    and b6 = Char.code (String.unsafe_get s (j + 6))
    and b7 = Char.code (String.unsafe_get s (j + 7)) in
    let lo = !crc lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    let hi = b4 lor (b5 lsl 8) lor (b6 lsl 16) lor (b7 lsl 24) in
    crc :=
      Array.unsafe_get t (0x700 lor (lo land 0xff))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xff))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := j + 8
  done;
  let stop = pos + len in
  while !i < stop do
    crc :=
      Array.unsafe_get t
        ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xff)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc

let update_int_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.update_sub";
  run tables s ~pos ~len ((crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) lxor 0xFFFFFFFF

let digest_int_sub s ~pos ~len = update_int_sub 0 s ~pos ~len
let digest_int s = digest_int_sub s ~pos:0 ~len:(String.length s)

(* Digest over a [Bytes.t] region — the in-place sealing path, where
   the body still lives in a writer's scratch buffer. Safe view: the
   buffer is not mutated while the digest runs. *)
let digest_int_bytes_sub b ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length b - pos then
    invalid_arg "Crc32.digest_int_bytes_sub";
  run tables (Bytes.unsafe_to_string b) ~pos ~len 0xFFFFFFFF lxor 0xFFFFFFFF

(* ---------- combine (zlib's crc32_combine) ----------

   [combine (digest a) (digest b) (length b) = digest (a ^ b)] without
   touching the bytes again: appending [len] bytes multiplies the first
   CRC by x^(8·len) modulo the polynomial, which takes O(log len)
   carry-less 32-bit multiplications using a table of x^(2^k). This is
   what lets a frame assembled from already-checksummed pieces get its
   CRC in constant time per piece. *)

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

(* Int32-facing compatibility surface: same 32-bit patterns as the
   historical interface (conversions wrap modulo 2^32). *)
let to_int c = Int32.to_int (Int32.logand c 0xFFFFFFFFl) land 0xFFFFFFFF

let update_sub crc s ~pos ~len =
  Int32.of_int (update_int_sub (to_int crc) s ~pos ~len)

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)
let digest s = update 0l s
let digest_sub s ~pos ~len = update_sub 0l s ~pos ~len
