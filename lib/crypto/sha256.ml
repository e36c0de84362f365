(* SHA-256 per FIPS 180-4. The compression rounds are a C kernel
   (fl_sha256_stubs.c) that absorbs any number of whole 64-byte blocks
   per call; staging a partial block, padding, HMAC and the profiling
   bracket stay here. The chaining state lives in a 32-byte buffer as
   H0..H7 big-endian, the digest's own layout, so [finalize] copies
   it out. *)

let digest_size = 32

type t = {
  h : bytes;              (* chaining state, H0..H7 big-endian *)
  block : bytes;          (* 64-byte staging buffer *)
  mutable fill : int;     (* bytes currently staged *)
  mutable total : int;    (* total message bytes absorbed *)
}

(* [compress h buf off n] absorbs the [n] whole blocks at [buf.[off]]
   into [h]. The caller has checked the range. *)
external compress :
  bytes -> bytes -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "fl_sha256_compress_byte" "fl_sha256_compress"
[@@noalloc]

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

let init () =
  { h = Bytes.of_string iv; block = Bytes.create 64; fill = 0; total = 0 }

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
      compress t.h t.block 0 1;
      t.fill <- 0
    end
  end;
  let whole = !remaining lsr 6 in
  if whole > 0 then begin
    compress t.h buf !pos whole;
    pos := !pos + (whole lsl 6);
    remaining := !remaining land 63
  end;
  if !remaining > 0 then begin
    Bytes.blit buf !pos t.block t.fill !remaining;
    t.fill <- t.fill + !remaining
  end

let feed_string t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  feed_bytes t ~off ~len (Bytes.unsafe_of_string s)

(* Padding goes straight into the staging block: 0x80, zeros, then
   the 64-bit big-endian bit length, spilling into a second block when
   fewer than 9 bytes are left. *)
let finalize t =
  let b = t.block in
  Bytes.set b t.fill '\x80';
  let fill = t.fill + 1 in
  if fill > 56 then begin
    Bytes.fill b fill (64 - fill) '\000';
    compress t.h b 0 1;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b fill (56 - fill) '\000';
  Bytes.set_int64_be b 56 (Int64.of_int (t.total * 8));
  compress t.h b 0 1;
  Bytes.sub_string t.h 0 32

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

(* An HMAC key as the chaining states after its ipad and opad blocks:
   each HMAC under it then compresses only the message and the outer
   digest, never the 64-byte key pads again. *)
type key = { inner : string; outer : string }

let hmac_key key =
  let key = if String.length key > 64 then digest key else key in
  let midstate pad =
    let block = Bytes.make 64 pad in
    String.iteri
      (fun i c ->
        Bytes.unsafe_set block i
          (Char.unsafe_chr (Char.code c lxor Char.code pad)))
      key;
    let h = Bytes.of_string iv in
    compress h block 0 1;
    Bytes.unsafe_to_string h
  in
  { inner = midstate '\x36'; outer = midstate '\x5c' }

(* Both hashes run in one context: the outer one restarts it from the
   opad midstate. *)
let hmac_keyed_impl k msg =
  let t =
    { h = Bytes.of_string k.inner;
      block = Bytes.create 64;
      fill = 0;
      total = 64 }
  in
  feed_string t msg;
  let inner = finalize t in
  Bytes.blit_string k.outer 0 t.h 0 32;
  t.fill <- 0;
  t.total <- 64;
  feed_string t inner;
  finalize t

let hmac_keyed k msg =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.sha256 (fun () -> hmac_keyed_impl k msg)
  else hmac_keyed_impl k msg

let hmac ~key msg =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.sha256 (fun () ->
        hmac_keyed_impl (hmac_key key) msg)
  else hmac_keyed_impl (hmac_key key) msg
