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

val seal : tag:int -> (Codec.Writer.t -> unit) -> string
(** [seal ~tag write] is the frame whose body [write] produces. Raises
    [Invalid_argument] unless [0 <= tag <= 255]. *)

val seal_into : Codec.Writer.t -> tag:int -> (Codec.Writer.t -> unit) -> unit
(** Append the same frame to a caller-owned writer instead of
    returning it as a string. *)

val patch_header : Codec.Writer.t -> start:int -> tag:int -> crc:int -> unit
(** Fill the [header_bytes] reserved at [start] for a body whose CRC
    is already known — a frame assembled from pre-checksummed pieces
    (see {!Crc32.combine}). *)

val open_sub : string -> pos:int -> len:int -> int * Codec.Reader.t
(** Open the frame at [pos, pos+len) of [s]: check the version and
    the body CRC and return the tag and a zero-copy reader over the
    body. Raises {!Codec.Malformed} on a version or CRC mismatch and
    {!Codec.Reader.Underflow} on a frame too short for its header or a
    range outside [s]. *)

val open_ : string -> int * Codec.Reader.t
(** [open_sub] over the whole string. *)

val open_expect : tag:int -> string -> Codec.Reader.t
(** [open_] of a frame whose tag is fixed by context (evidence records,
    snapshot headers): raises {!Codec.Malformed} on any other tag. *)
