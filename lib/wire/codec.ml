exception Malformed of string

module Slice = struct
  (* A borrowed [off, off+len) view of an immutable backing string —
     the zero-copy currency of the decode path. A slice is only valid
     while its backing buffer is; anything that outlives the frame it
     was decoded from (stash, WAL, snapshot cache) must [to_string]
     first (copy-on-retain). *)
  type t = { base : string; off : int; len : int }

  let of_string base = { base; off = 0; len = String.length base }

  let of_sub base ~pos ~len =
    if pos < 0 || len < 0 || len > String.length base - pos then
      invalid_arg "Codec.Slice.of_sub";
    { base; off = pos; len }

  let sub t ~pos ~len =
    if pos < 0 || len < 0 || len > t.len - pos then
      invalid_arg "Codec.Slice.sub";
    { base = t.base; off = t.off + pos; len }

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Codec.Slice.get";
    String.unsafe_get t.base (t.off + i)

  (* The explicit ownership boundary: a whole-string slice returns its
     backing string unshared-by-construction (retaining it retains
     exactly those bytes), anything narrower is copied out. *)
  let to_string t =
    if t.off = 0 && t.len = String.length t.base then t.base
    else String.sub t.base t.off t.len

  let equal a b =
    a.len = b.len
    &&
    let rec go i =
      i >= a.len
      || String.unsafe_get a.base (a.off + i)
           = String.unsafe_get b.base (b.off + i)
         && go (i + 1)
    in
    go 0
end

module Writer = struct
  (* Grow-only scratch buffer. Unlike [Buffer.t] it exposes its byte
     storage for in-place work — checksumming a sealed body without
     first copying it out, and patching a reserved header slot after
     the body length is known. Cleared-and-reused via {!Pool} or a
     per-owner scratch, so steady-state encoding allocates only the
     final [contents] string. *)
  type t = { mutable buf : Bytes.t; mutable len : int; initial : int }

  let create ?(capacity = 256) () =
    let capacity = max capacity 16 in
    { buf = Bytes.create capacity; len = 0; initial = capacity }

  let clear t = t.len <- 0

  let reset t =
    t.len <- 0;
    if Bytes.length t.buf > t.initial then t.buf <- Bytes.create t.initial

  let grow t needed =
    let cap = ref (Bytes.length t.buf) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b

  let ensure t n = if t.len + n > Bytes.length t.buf then grow t (t.len + n)

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  let set32 b p v =
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

  let u16 t v =
    ensure t 2;
    let p = t.len in
    Bytes.unsafe_set t.buf p (Char.unsafe_chr (v land 0xff));
    Bytes.unsafe_set t.buf (p + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
    t.len <- p + 2

  let u32 t v =
    ensure t 4;
    set32 t.buf t.len v;
    t.len <- t.len + 4

  let u64 t v =
    ensure t 8;
    set32 t.buf t.len v;
    set32 t.buf (t.len + 4) ((v lsr 32) land 0xFFFFFFFF);
    t.len <- t.len + 8

  let rec varint t v =
    if v < 0 then invalid_arg "Codec.varint: negative"
    else if v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      varint t (v lsr 7)
    end

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let raw_bytes t src ~pos ~len =
    if pos < 0 || len < 0 || len > Bytes.length src - pos then
      invalid_arg "Codec.Writer.raw_bytes";
    ensure t len;
    Bytes.blit src pos t.buf t.len len;
    t.len <- t.len + len

  let bytes t s =
    varint t (String.length s);
    raw t s

  let slice t (s : Slice.t) =
    varint t s.Slice.len;
    ensure t s.Slice.len;
    Bytes.blit_string s.Slice.base s.Slice.off t.buf t.len s.Slice.len;
    t.len <- t.len + s.Slice.len

  let bool t b = u8 t (if b then 1 else 0)

  let pad t n =
    if n < 0 then invalid_arg "Codec.pad: negative"
    else begin
      ensure t n;
      Bytes.fill t.buf t.len n '\000';
      t.len <- t.len + n
    end

  (* Append [n] zero bytes and return their offset — a header slot to
     [patch_*] once the trailing content (length, checksum) is known,
     so frames build front-to-back in one pass with no copy. *)
  let reserve t n =
    let off = t.len in
    pad t n;
    off

  let patch_u32 t off v =
    if off < 0 || off + 4 > t.len then invalid_arg "Codec.patch_u32";
    set32 t.buf off v

  let patch_u8 t off v =
    if off < 0 || off >= t.len then invalid_arg "Codec.patch_u8";
    Bytes.unsafe_set t.buf off (Char.unsafe_chr (v land 0xff))

  let length t = t.len
  let contents t = Bytes.sub_string t.buf 0 t.len

  let sub_string t ~pos ~len =
    if pos < 0 || len < 0 || len > t.len - pos then
      invalid_arg "Codec.Writer.sub_string";
    Bytes.sub_string t.buf pos len

  (* The writer's live storage, valid bytes [0, length t). Read-only
     borrow for in-place checksumming; never mutate, never retain
     across a write (growth swaps the buffer). *)
  let unsafe_bytes t = t.buf
end

module Reader = struct
  (* [pos, limit) window over [data]; sub-readers share [data] with a
     narrower window, so nested/lazy body decode is zero-copy. *)
  type t = { data : string; mutable pos : int; limit : int }

  exception Underflow

  let of_string data = { data; pos = 0; limit = String.length data }

  let of_substring data ~pos ~len =
    if pos < 0 || len < 0 || len > String.length data - pos then
      invalid_arg "Codec.Reader.of_substring";
    { data; pos; limit = pos + len }

  let of_slice (s : Slice.t) =
    { data = s.Slice.base; pos = s.Slice.off; limit = s.Slice.off + s.Slice.len }

  let remaining t = t.limit - t.pos
  let at_end t = remaining t = 0

  let u8 t =
    if t.pos >= t.limit then raise Underflow;
    let v = Char.code (String.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    if t.limit - t.pos < 2 then raise Underflow;
    let d = t.data and p = t.pos in
    t.pos <- p + 2;
    Char.code (String.unsafe_get d p)
    lor (Char.code (String.unsafe_get d (p + 1)) lsl 8)

  let u32 t =
    if t.limit - t.pos < 4 then raise Underflow;
    let d = t.data and p = t.pos in
    t.pos <- p + 4;
    Char.code (String.unsafe_get d p)
    lor (Char.code (String.unsafe_get d (p + 1)) lsl 8)
    lor (Char.code (String.unsafe_get d (p + 2)) lsl 16)
    lor (Char.code (String.unsafe_get d (p + 3)) lsl 24)

  let u64 t =
    let lo = u32 t in
    lo lor (u32 t lsl 32)

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise Underflow;
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  (* Guards use subtraction, never [pos + n]: an adversarial length
     near [max_int] must not wrap around the comparison. *)
  let raw t n =
    if n < 0 || n > remaining t then raise Underflow;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let bytes t =
    let n = varint t in
    raw t n

  (* Zero-copy [raw]: borrow the next [n] bytes as a slice of the
     backing buffer instead of copying them out. *)
  let view t n =
    if n < 0 || n > remaining t then raise Underflow;
    let s = { Slice.base = t.data; off = t.pos; len = n } in
    t.pos <- t.pos + n;
    s

  let view_bytes t =
    let n = varint t in
    view t n

  (* Zero-allocation fixed-string check (magic numbers, format tags):
     compare in place, fail as [Malformed]. *)
  let expect_raw t expected =
    let n = String.length expected in
    if n > remaining t then raise Underflow;
    let d = t.data and p = t.pos in
    for i = 0 to n - 1 do
      if String.unsafe_get d (p + i) <> String.unsafe_get expected i then
        raise (Malformed "magic mismatch")
    done;
    t.pos <- p + n

  let skip t n =
    if n < 0 || n > remaining t then raise Underflow;
    t.pos <- t.pos + n

  let sub t n =
    if n < 0 || n > remaining t then raise Underflow;
    let r = { data = t.data; pos = t.pos; limit = t.pos + n } in
    t.pos <- t.pos + n;
    r

  let sub_bytes t =
    let n = varint t in
    sub t n

  let bool t = u8 t <> 0

  (* A sequence count claimed by the input: every element costs at
     least one byte, so a count beyond [remaining] is malformed. This
     bounds allocation before any [Array.init count] on adversarial
     frames. *)
  (* [n < 0] catches a 9-byte varint whose top bits overflowed the
     63-bit int into the sign — [>] alone would wave it through. *)
  let seq_len t =
    let n = varint t in
    if n < 0 || n > remaining t then
      raise (Malformed "sequence count exceeds input");
    n
end

let varint_size v =
  if v < 0 then invalid_arg "Codec.varint_size: negative"
  else
    let rec go v acc = if v < 0x80 then acc else go (v lsr 7) (acc + 1) in
    go v 1
