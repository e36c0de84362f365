(* Build a total [decode] from a sealed-frame body reader over the
   frame at [pos, pos+len) of [s] — a whole string, a receive buffer
   or a WAL segment; the body reader is a window over [s], nothing is
   copied out first. [read tag reader] parses one message class; the
   whole body must be consumed (trailing bytes are malformed — they
   would be invisible to the protocol yet still charged to the NIC). *)
let decode_impl read s ~pos ~len =
  match
    let tag, r = Envelope.open_sub s ~pos ~len in
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
let decode_frame_sub read s ~pos ~len =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_decode (fun () ->
        decode_impl read s ~pos ~len)
  else decode_impl read s ~pos ~len

let decode_frame read s = decode_frame_sub read s ~pos:0 ~len:(String.length s)
