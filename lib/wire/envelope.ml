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
   write the body after them, then checksum the body in place — its
   literal bytes through the native kernel, its zero runs by
   {!Crc32.update_zeros} — and patch the header. *)
let finish w ~tag ~start =
  let body = start + header_bytes in
  let crc =
    Codec.Writer.crc w ~pos:body ~len:(Codec.Writer.length w - body)
  in
  patch_header w ~start ~tag ~crc

(* Append one sealed frame to a writer: the pooled writer of [seal],
   or a caller-owned one — the WAL's per-record path, where the frame
   lands inside a reusable scratch buffer behind a length prefix. *)
let seal_into_impl w ~tag write =
  if tag < 0 || tag > max_tag then invalid_arg "Envelope.seal: tag";
  let start = Codec.Writer.reserve w header_bytes in
  write w;
  finish w ~tag ~start

let seal_impl ~tag write =
  Pool.with_writer (fun w ->
      seal_into_impl w ~tag write;
      Codec.Writer.piece w)

(* Self-profiling bracket (Fl_prof): every wire message and durable
   record is encoded through [seal] or [seal_into], so one subsystem
   attributes the whole encode path wherever the frame bytes end up. *)
let seal ~tag write =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_encode (fun () ->
        seal_impl ~tag write)
  else seal_impl ~tag write

let seal_into w ~tag write =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_encode (fun () ->
        seal_into_impl w ~tag write)
  else seal_into_impl w ~tag write

(* Open a sealed frame — zero-copy: the returned reader is a window
   over the piece's backing, and the body CRC steps over its zero
   runs without touching a byte. *)
let open_impl p =
  let r = Codec.Reader.of_piece p in
  let len = Codec.Reader.remaining r in
  if len < header_bytes then raise Codec.Reader.Underflow;
  let v = Codec.Reader.u8 r in
  if v <> version then
    raise (Codec.Malformed (Printf.sprintf "envelope: version %d" v));
  let tag = Codec.Reader.u8 r in
  let crc = Codec.Reader.u32 r in
  if Sparse.crc (Sparse.sub p ~pos:header_bytes ~len:(len - header_bytes)) <> crc
  then raise (Codec.Malformed "envelope: checksum mismatch");
  (tag, r)

(* Self-profiling bracket: header check + CRC of the body — the fixed
   per-frame decode cost. The body parse that follows is attributed by
   {!Msg_codec.decode_frame}'s enclosing frame. Underflow/Malformed
   are expected control flow here; the frame closes on them too. *)
let open_ p =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_decode (fun () -> open_impl p)
  else open_impl p

(* Open a frame that must carry a specific tag — for detached objects
   (evidence records, snapshot headers) whose type is fixed by context
   rather than dispatched on. Returns just the body reader. *)
let open_expect ~tag p =
  let got, r = open_ p in
  if got <> tag then
    raise (Codec.Malformed (Printf.sprintf "envelope: tag %d, expected %d" got tag));
  r
