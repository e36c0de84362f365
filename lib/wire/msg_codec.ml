(* Build a total [decode] from a sealed-frame body reader over the
   frame piece [p] — a sent frame, a WAL record or a window of a
   receive buffer; the body reader is a window over [p]'s backing,
   nothing is copied out first. [read tag reader] parses one message
   class; the whole body must be consumed (trailing bytes are
   malformed — they would be invisible to the protocol yet still
   charged to the NIC). *)
let decode_impl read p =
  match
    let tag, r = Envelope.open_ p in
    let m = read tag r in
    if not (Codec.Reader.at_end r) then
      raise (Codec.Malformed "trailing bytes");
    m
  with
  | m -> Some m
  | exception (Codec.Reader.Underflow | Codec.Malformed _) -> None

(* Self-profiling bracket (Fl_prof): the whole frame decode — envelope
   open (a nested frame of the same subsystem) plus body parse. A
   [read] that raises anything but the two codec exceptions is a bug;
   the frame still closes before it propagates. *)
let decode_frame read p =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_decode (fun () -> decode_impl read p)
  else decode_impl read p

let decode_frame_sub read s ~pos ~len = decode_frame read (Sparse.of_sub s ~pos ~len)
