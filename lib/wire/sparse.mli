(** Byte strings kept with their zero runs elided.

    A synthetic transaction's payload is zero padding of its declared
    size ({!Fl_chain.Serial.encode_tx}), so most of a block encoding
    can be zeros. A durable copy of one — a WAL frame, a snapshot
    round — keeps only the bytes around those runs and becomes real
    bytes again only where it is read out ({!blit}, {!to_string}).

    A piece is immutable. Its compact form is one string of chunks
    [varint literal_length | literal bytes | varint zero_count], so a
    piece costs one heap block however many runs it elides. *)

type t

val compact : Bytes.t -> pos:int -> len:int -> ((int -> int -> unit) -> unit) -> t
(** [compact src ~pos ~len runs] is the piece of [src]'s bytes
    [[pos, pos+len)]. [runs mark] calls [mark at n] for each run of
    [n] bytes at [at] to elide, in increasing order and inside the
    range; those bytes must be zeros. A run of [n = 0] elides nothing
    but lets {!drop} cut at [at]. Raises [Invalid_argument] on a range
    outside [src] or a run out of order or out of range. *)

val drop : t -> int -> t
(** [drop t n] is [t] without its first [n] bytes, sharing its compact
    form. [n] must be [0] or the end of a run given to {!compact};
    raises [Invalid_argument] otherwise. *)

val length : t -> int
(** The number of bytes the piece stands for. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit t dst off] writes the piece's bytes, zeros included, to
    [dst] from [off]. Raises [Invalid_argument] if they do not fit. *)

val to_string : t -> string
(** The piece's bytes as one string. *)
