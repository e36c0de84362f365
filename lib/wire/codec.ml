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
  (* Grow-only scratch buffer of literal bytes, plus the zero runs
     [pad] recorded instead of writing: flat [(at, n)] pairs, [n]
     zeros standing before literal byte [at], the unused tail filled
     with [max_int] sentinels so a {!Sparse} window over the live
     arrays stops at the last run. Unlike [Buffer.t] it exposes its
     storage for in-place work — patching a reserved header slot after
     the body length is known. Cleared-and-reused via {!Pool} or a
     per-owner scratch, so steady-state encoding allocates only the
     final piece. *)
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (* literal bytes *)
    mutable runs : int array;
    mutable nruns : int;
    mutable zeros : int;  (* zero bytes in runs *)
    initial : int;
  }

  let create ?(capacity = 256) () =
    let capacity = max capacity 16 in
    { buf = Bytes.create capacity;
      len = 0;
      runs = Sparse.no_runs;
      nruns = 0;
      zeros = 0;
      initial = capacity }

  let clear t =
    for i = 0 to t.nruns - 1 do
      t.runs.(2 * i) <- max_int
    done;
    t.len <- 0;
    t.nruns <- 0;
    t.zeros <- 0

  let reset t =
    clear t;
    t.runs <- Sparse.no_runs;
    if Bytes.length t.buf > t.initial then t.buf <- Bytes.create t.initial

  let capacity t = Bytes.length t.buf + (8 * Array.length t.runs)

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

  let bytes t s =
    varint t (String.length s);
    raw t s

  let slice t (s : Slice.t) =
    varint t s.Slice.len;
    ensure t s.Slice.len;
    Bytes.blit_string s.Slice.base s.Slice.off t.buf t.len s.Slice.len;
    t.len <- t.len + s.Slice.len

  let bool t b = u8 t (if b then 1 else 0)

  (* A zero run is a count, not bytes: it joins the previous run when
     no literal byte came between them. *)
  let pad t n =
    if n < 0 then invalid_arg "Codec.pad: negative"
    else if n > 0 then begin
      let k = t.nruns in
      if k > 0 && t.runs.(2 * (k - 1)) = t.len then
        t.runs.((2 * (k - 1)) + 1) <- t.runs.((2 * (k - 1)) + 1) + n
      else begin
        if 2 * (k + 1) > Array.length t.runs then begin
          let runs = Array.make (max 16 (4 * (k + 1))) max_int in
          Array.blit t.runs 0 runs 0 (2 * k);
          t.runs <- runs
        end;
        t.runs.(2 * k) <- t.len;
        t.runs.((2 * k) + 1) <- n;
        t.nruns <- k + 1
      end;
      t.zeros <- t.zeros + n
    end

  (* Append [n] literal zero bytes and return their offset — a header
     slot to [patch_*] once the trailing content (length, checksum) is
     known, so frames build front-to-back in one pass with no copy. *)
  let reserve t n =
    let off = t.len + t.zeros in
    ensure t n;
    Bytes.fill t.buf t.len n '\000';
    t.len <- t.len + n;
    off

  let length t = t.len + t.zeros

  (* The whole writer as a window over its live arrays — valid until
     the next write. *)
  let view t =
    Sparse.unsafe_make ~lits:(Bytes.unsafe_to_string t.buf) ~runs:t.runs
      ~pos:0 ~run:0 ~skip:0 ~len:(length t)

  (* The literal index of logical offset [off], whose [width] bytes
     must all be literal. *)
  let literal_at t off width name =
    if off < 0 || off + width > length t then invalid_arg name;
    let p = ref off and k = ref 0 in
    while !k < t.nruns && t.runs.(2 * !k) <= !p do
      let at = t.runs.(2 * !k) and n = t.runs.((2 * !k) + 1) in
      if !p - at < n then invalid_arg name;
      p := !p - n;
      incr k
    done;
    if !k < t.nruns && t.runs.(2 * !k) < !p + width then invalid_arg name;
    !p

  let patch_u32 t off v = set32 t.buf (literal_at t off 4 "Codec.patch_u32") v

  let patch_u8 t off v =
    Bytes.unsafe_set t.buf
      (literal_at t off 1 "Codec.patch_u8")
      (Char.unsafe_chr (v land 0xff))

  let crc t ~pos ~len =
    if t.nruns = 0 then begin
      if pos < 0 || len < 0 || len > t.len - pos then invalid_arg "Codec.Writer.crc";
      Crc32.digest_int_bytes_sub t.buf ~pos ~len
    end
    else Sparse.crc (Sparse.sub (view t) ~pos ~len)

  let piece t =
    Sparse.unsafe_make ~lits:(Bytes.sub_string t.buf 0 t.len)
      ~runs:(if t.nruns = 0 then Sparse.no_runs else Array.sub t.runs 0 (2 * t.nruns))
      ~pos:0 ~run:0 ~skip:0 ~len:(length t)

  let contents t =
    if t.nruns = 0 then Bytes.sub_string t.buf 0 t.len
    else Sparse.to_string (view t)
end

module Reader = struct
  (* A window over a {!Sparse} backing: literal bytes [data] and zero
     runs [runs]. [data.[pos, limit)] is the current literal stretch
     — the fast path of every primitive compares against [limit]
     alone, as over a plain string. [rest] bytes of the window follow
     it: when [pos = limit] and [zeros > 0], run [run] (standing at
     [limit]) still has [zeros] of its zeros to give; the bytes after
     those start at [data.[limit]], with run [run + 1] next. Over a
     plain string [runs] is empty and [rest] is 0. Sub-readers share
     the backing with a narrower window, so nested/lazy body decode is
     zero-copy. *)
  type t = {
    data : string;
    runs : int array;
    mutable pos : int;
    mutable limit : int;
    mutable run : int;
    mutable zeros : int;
    mutable rest : int;
  }

  exception Underflow

  let plain data ~pos ~len =
    { data; runs = Sparse.no_runs; pos; limit = pos + len; run = 0; zeros = 0; rest = 0 }

  let of_string data = plain data ~pos:0 ~len:(String.length data)

  let of_slice (s : Slice.t) = plain s.Slice.base ~pos:s.Slice.off ~len:s.Slice.len

  (* [pos = limit], and run [run - 1] is used up (or there is none
     before [limit]): open the literal stretch up to run [run]. *)
  let open_stretch t =
    let k = min (Sparse.at t.runs t.run - t.limit) t.rest in
    t.limit <- t.limit + k;
    t.rest <- t.rest - k;
    t.zeros <- (if t.rest > 0 then t.runs.((2 * t.run) + 1) else 0)

  let of_piece (p : Sparse.t) =
    let t =
      { data = p.Sparse.lits;
        runs = p.Sparse.runs;
        pos = p.Sparse.pos;
        limit = p.Sparse.pos;
        run = p.Sparse.run;
        zeros = 0;
        rest = p.Sparse.len }
    in
    if p.Sparse.len > 0 && Sparse.at t.runs t.run = t.pos then
      t.zeros <- t.runs.((2 * t.run) + 1) - p.Sparse.skip
    else open_stretch t;
    t

  let remaining t = t.limit - t.pos + t.rest
  let at_end t = remaining t = 0

  (* The slow path, at the end of the literal stretch: take [z] zeros
     of the run there, opening the next stretch once the run is used
     up — so [pos = limit] with bytes left always means zeros to
     give. *)
  let take_zeros t z =
    t.zeros <- t.zeros - z;
    t.rest <- t.rest - z;
    if t.zeros = 0 && t.rest > 0 then begin
      t.run <- t.run + 1;
      open_stretch t
    end

  let rec skip_slow t n =
    if n > 0 then begin
      let k = min (t.limit - t.pos) n in
      if k > 0 then begin
        t.pos <- t.pos + k;
        skip_slow t (n - k)
      end
      else begin
        let z = min (min t.zeros t.rest) n in
        take_zeros t z;
        skip_slow t (n - z)
      end
    end

  (* The next [n <= remaining] bytes copied out, zeros written. *)
  let fill t n =
    let b = Bytes.create n and o = ref 0 in
    while !o < n do
      let k = min (t.limit - t.pos) (n - !o) in
      if k > 0 then begin
        Bytes.blit_string t.data t.pos b !o k;
        t.pos <- t.pos + k;
        o := !o + k
      end
      else begin
        let z = min (min t.zeros t.rest) (n - !o) in
        Bytes.fill b !o z '\000';
        take_zeros t z;
        o := !o + z
      end
    done;
    Bytes.unsafe_to_string b

  let u8 t =
    if t.pos < t.limit then begin
      let v = Char.code (String.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      v
    end
    else if t.rest = 0 then raise Underflow
    else begin
      take_zeros t 1;
      0
    end

  let u16 t =
    if t.limit - t.pos < 2 then begin
      if remaining t < 2 then raise Underflow;
      let lo = u8 t in
      lo lor (u8 t lsl 8)
    end
    else begin
      let d = t.data and p = t.pos in
      t.pos <- p + 2;
      Char.code (String.unsafe_get d p)
      lor (Char.code (String.unsafe_get d (p + 1)) lsl 8)
    end

  let u32 t =
    if t.limit - t.pos < 4 then begin
      if remaining t < 4 then raise Underflow;
      let b0 = u8 t in
      let b1 = u8 t in
      let b2 = u8 t in
      b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (u8 t lsl 24)
    end
    else begin
      let d = t.data and p = t.pos in
      t.pos <- p + 4;
      Char.code (String.unsafe_get d p)
      lor (Char.code (String.unsafe_get d (p + 1)) lsl 8)
      lor (Char.code (String.unsafe_get d (p + 2)) lsl 16)
      lor (Char.code (String.unsafe_get d (p + 3)) lsl 24)
    end

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
    if n >= 0 && n <= t.limit - t.pos then begin
      let s = String.sub t.data t.pos n in
      t.pos <- t.pos + n;
      s
    end
    else if n < 0 || n > remaining t then raise Underflow
    else fill t n

  let bytes t =
    let n = varint t in
    raw t n

  (* Zero-copy [raw]: borrow the next [n] bytes as a slice of the
     backing buffer instead of copying them out — unless they straddle
     a zero run, when only those [n] bytes are written out. *)
  let view t n =
    if n >= 0 && n <= t.limit - t.pos then begin
      let s = { Slice.base = t.data; off = t.pos; len = n } in
      t.pos <- t.pos + n;
      s
    end
    else Slice.of_string (raw t n)

  let view_bytes t =
    let n = varint t in
    view t n

  (* Zero-allocation fixed-string check (magic numbers, format tags):
     compare in place, fail as [Malformed]. *)
  let expect_raw t expected =
    let n = String.length expected in
    if n > remaining t then raise Underflow;
    if n <= t.limit - t.pos then begin
      let d = t.data and p = t.pos in
      for i = 0 to n - 1 do
        if String.unsafe_get d (p + i) <> String.unsafe_get expected i then
          raise (Malformed "magic mismatch")
      done;
      t.pos <- p + n
    end
    else if not (String.equal (fill t n) expected) then
      raise (Malformed "magic mismatch")

  let skip t n =
    if n >= 0 && n <= t.limit - t.pos then t.pos <- t.pos + n
    else if n < 0 || n > remaining t then raise Underflow
    else skip_slow t n

  (* The next [n] bytes as a window of the same backing: the current
     state, clipped. *)
  let sub t n =
    if n < 0 || n > remaining t then raise Underflow;
    let lit = t.limit - t.pos in
    let r =
      if n <= lit then { t with limit = t.pos + n; zeros = 0; rest = 0 }
      else { t with rest = n - lit }
    in
    skip t n;
    r

  let sub_bytes t =
    let n = varint t in
    sub t n

  let piece t n =
    if n < 0 || n > remaining t then raise Underflow;
    let p =
      if t.pos < t.limit || n = 0 then
        Sparse.unsafe_make ~lits:t.data ~runs:t.runs ~pos:t.pos ~run:t.run
          ~skip:0 ~len:n
      else
        Sparse.unsafe_make ~lits:t.data ~runs:t.runs ~pos:t.pos ~run:t.run
          ~skip:(t.runs.((2 * t.run) + 1) - t.zeros)
          ~len:n
    in
    skip t n;
    p

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
