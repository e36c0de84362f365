(** The total frame decoder every top-level wire-message codec is
    built from. The contract of such a codec: one message type, one
    [encode] producing the exact framed bytes the NIC is charged for,
    and one total [decode] with [decode (encode m) = m] for every
    message and [None] on any other input (the dispatcher drops and
    counts the frame). *)

val decode_frame : (int -> Codec.Reader.t -> 'a) -> string -> 'a option
(** [decode_frame read s] opens the sealed {!Envelope} frame [s] and
    parses its body with [read tag body]. [None] when the envelope is
    bad (version, CRC, length), when [read] raises
    {!Codec.Reader.Underflow} or {!Codec.Malformed}, or when [read]
    leaves trailing bytes. Any other exception from [read] is a codec
    bug and propagates. *)

val decode_frame_sub :
  (int -> Codec.Reader.t -> 'a) -> string -> pos:int -> len:int -> 'a option
(** Observationally [decode_frame read (String.sub s pos len)], without
    the copy: the body reader is a window over [s], so any slice in
    the result borrows [s]. *)
