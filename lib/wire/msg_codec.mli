(** The total frame decoder every top-level wire-message codec is
    built from. The contract of such a codec: one message type, one
    [encode] producing the exact frame the NIC is charged for (a
    {!Sparse} piece: synthetic padding is a zero run, counted in its
    length),
    and one total [decode] with [decode (encode m) = m] for every
    message and [None] on any other input (the dispatcher drops and
    counts the frame). *)

val decode_frame : (int -> Codec.Reader.t -> 'a) -> Sparse.t -> 'a option
(** [decode_frame read p] opens the sealed {!Envelope} frame [p] and
    parses its body with [read tag body]. [None] when the envelope is
    bad (version, CRC, length), when [read] raises
    {!Codec.Reader.Underflow} or {!Codec.Malformed}, or when [read]
    leaves trailing bytes. Any other exception from [read] is a codec
    bug and propagates. *)

val decode_frame_sub :
  (int -> Codec.Reader.t -> 'a) -> string -> pos:int -> len:int -> 'a option
(** [decode_frame read (Sparse.of_sub s ~pos ~len)]: observationally
    the decode of [String.sub s pos len], without the copy — any slice
    in the result borrows [s]. *)
