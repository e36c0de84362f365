(* SHA-256 per FIPS 180-4. Words are kept in native ints masked to 32
   bits: on a 64-bit platform this avoids Int32 boxing in the inner
   compression loop, which is the hot path of the whole simulator. *)

let digest_size = 32

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type t = {
  mutable h0 : int; mutable h1 : int; mutable h2 : int; mutable h3 : int;
  mutable h4 : int; mutable h5 : int; mutable h6 : int; mutable h7 : int;
  block : bytes;          (* 64-byte staging buffer *)
  mutable fill : int;     (* bytes currently staged *)
  mutable total : int;    (* total message bytes absorbed *)
  w : int array;          (* message schedule, reused across blocks *)
}

let init () =
  { h0 = 0x6a09e667; h1 = 0xbb67ae85; h2 = 0x3c6ef372; h3 = 0xa54ff53a;
    h4 = 0x510e527f; h5 = 0x9b05688c; h6 = 0x1f83d9ab; h7 = 0x5be0cd19;
    block = Bytes.create 64; fill = 0; total = 0; w = Array.make 64 0 }

let mask = 0xffffffff
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Compress one 64-byte block starting at [off] in [buf]. *)
let compress t buf off =
  let w = t.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get buf j) lsl 24)
      lor (Char.code (Bytes.unsafe_get buf (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get buf (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get buf (j + 3))
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let a = ref t.h0 and b = ref t.h1 and c = ref t.h2 and d = ref t.h3 in
  let e = ref t.h4 and f = ref t.h5 and g = ref t.h6 and h = ref t.h7 in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!h + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    h := !g; g := !f; f := !e;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := !a;
    a := (t1 + t2) land mask
  done;
  t.h0 <- (t.h0 + !a) land mask; t.h1 <- (t.h1 + !b) land mask;
  t.h2 <- (t.h2 + !c) land mask; t.h3 <- (t.h3 + !d) land mask;
  t.h4 <- (t.h4 + !e) land mask; t.h5 <- (t.h5 + !f) land mask;
  t.h6 <- (t.h6 + !g) land mask; t.h7 <- (t.h7 + !h) land mask

let feed_bytes t ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Sha256.feed_bytes";
  t.total <- t.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled staging block first. *)
  if t.fill > 0 then begin
    let take = min !remaining (64 - t.fill) in
    Bytes.blit buf !pos t.block t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress t buf !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit buf !pos t.block t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let feed_string t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  feed_bytes t ~off ~len (Bytes.unsafe_of_string s)

let finalize t =
  let bitlen = t.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let rem = (t.total + 1 + 8) mod 64 in
    if rem = 0 then 1 + 8 else 1 + 8 + (64 - rem)
  in
  let pad = Bytes.make pad_len '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len - 1 - i)
      (Char.chr ((bitlen lsr (8 * i)) land 0xff))
  done;
  (* feed_bytes updates [total], but it is no longer consulted. *)
  feed_bytes t pad;
  assert (t.fill = 0);
  let out = Bytes.create 32 in
  let put i v =
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  in
  put 0 t.h0; put 1 t.h1; put 2 t.h2; put 3 t.h3;
  put 4 t.h4; put 5 t.h5; put 6 t.h6; put 7 t.h7;
  Bytes.unsafe_to_string out

let digest_impl s =
  let t = init () in
  feed_string t s;
  finalize t

(* Self-profiling bracket (Fl_prof): pure, observe-only, one
   load-and-branch when profiling is off. *)
let digest s =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.sha256 (fun () -> digest_impl s)
  else digest_impl s

(* The streaming form under the same bracket: [feed] absorbs into a
   fresh context, so a digest over many pieces (a block body's tx
   commitments, a batch of payload digests) is one attributed call. *)
let digest_with feed =
  let run () =
    let t = init () in
    feed t;
    finalize t
  in
  if !Fl_prof.Prof.on then Fl_prof.Prof.frame Fl_prof.Prof.sha256 run
  else run ()

let hmac_impl ~key msg =
  let block_size = 64 in
  let key = if String.length key > block_size then digest key else key in
  let ipad = Bytes.make block_size '\x36' in
  let opad = Bytes.make block_size '\x5c' in
  String.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    key;
  let inner = init () in
  feed_bytes inner ipad;
  feed_string inner msg;
  let outer = init () in
  feed_bytes outer opad;
  feed_string outer (finalize inner);
  finalize outer

let hmac ~key msg =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.sha256 (fun () -> hmac_impl ~key msg)
  else hmac_impl ~key msg
