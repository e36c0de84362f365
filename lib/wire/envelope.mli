(** The one frame format every wire message and every durable record
    share:

    {v [u8 version | u8 tag | u32 crc32(body) | body...] v}

    The version byte gates format evolution; the tag names the
    top-level message class (protocol constructor, WAL record kind);
    the CRC turns byte-level faults — bit flips, truncations, torn
    disk tails — into detected {!Codec.Malformed} frames rather than
    silently different protocol state. *)

val header_bytes : int
(** 6: the version, tag and CRC ahead of the body. *)

val seal : tag:int -> (Codec.Writer.t -> unit) -> Sparse.t
(** [seal ~tag write] is the frame whose body [write] produces, as a
    piece: zero runs the body pads stay counts, and the CRC steps over
    them, so it equals the CRC-32 of the written-out bytes. Raises
    [Invalid_argument] unless [0 <= tag <= 255]. *)

val seal_into : Codec.Writer.t -> tag:int -> (Codec.Writer.t -> unit) -> unit
(** Append the same frame to a caller-owned writer instead of
    returning it as a piece. *)

val patch_header : Codec.Writer.t -> start:int -> tag:int -> crc:int -> unit
(** Fill the [header_bytes] reserved at [start] for a body whose CRC
    is already known — a frame assembled from pre-checksummed pieces
    (see {!Crc32.combine}). *)

val open_ : Sparse.t -> int * Codec.Reader.t
(** Open a frame: check the version and the body CRC (stepping over
    zero runs) and return the tag and a zero-copy reader over the
    body. Raises {!Codec.Malformed} on a version or CRC mismatch and
    {!Codec.Reader.Underflow} on a frame too short for its header. *)

val open_expect : tag:int -> Sparse.t -> Codec.Reader.t
(** [open_] of a frame whose tag is fixed by context (evidence records,
    snapshot headers): raises {!Codec.Malformed} on any other tag. *)
