(* The reference a sealed piece is compared against: the envelope
   built the dense way, as every frame was before zero runs — the body
   written out with its padding as zero bytes, and its CRC taken by
   the byte kernel over them. *)

open Fl_wire

let seal ~tag write =
  let w = Codec.Writer.create () in
  write w;
  let body = Codec.Writer.contents w in
  let h = Bytes.create Envelope.header_bytes in
  Bytes.set_uint8 h 0 1;
  Bytes.set_uint8 h 1 tag;
  Bytes.set_int32_le h 2 (Int32.of_int (Crc32.digest_int body));
  Bytes.unsafe_to_string h ^ body
