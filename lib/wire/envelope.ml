(* The one frame format every wire message and every durable record
   share:

     [u8 version | u8 tag | u32 crc32(body) | body...]

   The version byte gates format evolution; the tag names the
   top-level message class (protocol constructor, WAL record kind);
   the CRC turns byte-level faults — the explorer's bit flips and
   truncations, the disk's torn tails — into detected [Malformed]
   frames rather than silently different protocol state. [open_]
   returns a zero-copy reader over the body. *)

let version = 1
let header_bytes = 6
let max_tag = 0xff

(* Fill a reserved header slot for a body whose CRC is already known —
   also for frames assembled from pre-checksummed pieces. *)
let patch_header w ~start ~tag ~crc =
  Codec.Writer.patch_u8 w start version;
  Codec.Writer.patch_u8 w (start + 1) tag;
  Codec.Writer.patch_u32 w (start + 2) crc

(* Frames build front-to-back in one pass: reserve the 6 header bytes,
   write the body after them, then checksum the body in place and
   patch the header. The only per-seal allocation is the final frame
   string (the writer itself is pooled / caller-owned scratch). *)
let finish w ~tag ~start =
  let blen = Codec.Writer.length w - start - header_bytes in
  let crc =
    Crc32.digest_int_bytes_sub
      (Codec.Writer.unsafe_bytes w)
      ~pos:(start + header_bytes) ~len:blen
  in
  patch_header w ~start ~tag ~crc

let seal_impl ~tag write =
  if tag < 0 || tag > max_tag then invalid_arg "Envelope.seal: tag";
  Pool.with_writer (fun w ->
      let start = Codec.Writer.reserve w header_bytes in
      write w;
      finish w ~tag ~start;
      Codec.Writer.contents w)

(* Append one sealed frame to a caller-owned writer — the WAL's
   per-record path, where the frame lands inside a reusable scratch
   buffer behind a length prefix instead of becoming its own string. *)
let seal_into_impl w ~tag write =
  if tag < 0 || tag > max_tag then invalid_arg "Envelope.seal_into: tag";
  let start = Codec.Writer.reserve w header_bytes in
  write w;
  finish w ~tag ~start

(* Self-profiling bracket (Fl_prof): every wire message and durable
   record is encoded through here, so this one site attributes the
   whole encode path. Exception-safe: seal re-raises after closing
   its frame. *)
let seal ~tag write =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.codec_encode;
    match seal_impl ~tag write with
    | r ->
        Fl_prof.Prof.leave ();
        r
    | exception e ->
        Fl_prof.Prof.leave ();
        raise e
  end
  else seal_impl ~tag write

(* Same profiling bracket as [seal] — one subsystem attributes the
   whole encode path wherever the frame bytes end up. *)
let seal_into w ~tag write =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.codec_encode;
    match seal_into_impl w ~tag write with
    | () -> Fl_prof.Prof.leave ()
    | exception e ->
        Fl_prof.Prof.leave ();
        raise e
  end
  else seal_into_impl w ~tag write

(* Open a sealed frame living at [pos, pos+len) of [s] — zero-copy:
   the returned reader is a window over [s]. Raises
   {!Codec.Malformed} on version/CRC mismatch and
   {!Codec.Reader.Underflow} on a frame too short for its header. *)
let open_sub_impl s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    raise Codec.Reader.Underflow;
  if len < header_bytes then raise Codec.Reader.Underflow;
  let b i = Char.code (String.unsafe_get s (pos + i)) in
  if b 0 <> version then
    raise (Codec.Malformed (Printf.sprintf "envelope: version %d" (b 0)));
  let tag = b 1 in
  let crc = b 2 lor (b 3 lsl 8) lor (b 4 lsl 16) lor (b 5 lsl 24) in
  let blen = len - header_bytes in
  if Crc32.digest_int_sub s ~pos:(pos + header_bytes) ~len:blen <> crc then
    raise (Codec.Malformed "envelope: checksum mismatch");
  (tag, Codec.Reader.of_substring s ~pos:(pos + header_bytes) ~len:blen)

(* Self-profiling bracket: header check + CRC of the body — the fixed
   per-frame decode cost. The body parse that follows is attributed by
   {!Msg_codec.decode_frame}'s enclosing frame. Underflow/Malformed
   are expected control flow here; re-raise after closing. *)
let open_sub s ~pos ~len =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.codec_decode;
    match open_sub_impl s ~pos ~len with
    | r ->
        Fl_prof.Prof.leave ();
        r
    | exception e ->
        Fl_prof.Prof.leave ();
        raise e
  end
  else open_sub_impl s ~pos ~len

let open_ s = open_sub s ~pos:0 ~len:(String.length s)

(* Open a frame that must carry a specific tag — for detached objects
   (evidence records, snapshot headers) whose type is fixed by context
   rather than dispatched on. Returns just the body reader. *)
let open_expect ~tag s =
  let got, r = open_ s in
  if got <> tag then
    raise (Codec.Malformed (Printf.sprintf "envelope: tag %d, expected %d" got tag));
  r
