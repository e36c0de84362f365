(** Binary codec with a stable, canonical encoding.

    Three uses: (i) producing the exact byte string that is hashed and
    signed (block headers, recovery proofs) — canonical encoding makes
    signatures well-defined; (ii) producing the framed wire bytes that
    cross the simulated network, whose [String.length] is what the NIC
    bandwidth model charges; (iii) the durable framing of the WAL and
    snapshots. Integers are little-endian fixed width; variable-length
    fields are length-prefixed.

    Synthetic padding ({!Writer.pad}) is a zero run, not bytes: a
    writer's output is a {!Sparse} piece, and a {!Reader} over a piece
    returns exactly what it returns over the piece's bytes, stepping
    over runs without materialising them.

    Ownership rule for zero-copy decode: {!Slice.t}, {!Sparse.t} and
    {!Reader.t} values {e borrow} the frame they were decoded from. Any
    component that retains a payload past the frame's lifetime (a
    stash, the WAL, a snapshot cache) must copy first
    ({!Slice.to_string}, {!Sparse.concat}) — everything else stays a
    view. A piece a writer hands out ({!Writer.piece}) owns its
    backing. *)

exception Malformed of string
(** Structurally invalid input: bad tag, checksum mismatch,
    implausible count. Together with {!Reader.Underflow} these are the
    only exceptions a well-formed decoder may raise; [decode]
    boundaries catch both and return [None]. *)

module Slice : sig
  type t = private { base : string; off : int; len : int }
  (** A borrowed [off, off+len) view of an immutable string. The
      fields are readable (the CRC/blit fast paths want them) but only
      the smart constructors can build one, so the bounds invariant
      holds everywhere. *)

  val of_string : string -> t
  (** Whole-string view — no copy, ever. *)

  val of_sub : string -> pos:int -> len:int -> t
  (** View of a trusted range; raises [Invalid_argument] out of
      range. *)

  val sub : t -> pos:int -> len:int -> t
  (** Narrow a view — still no copy. *)

  val length : t -> int
  val get : t -> int -> char

  val to_string : t -> string
  (** The copy-on-retain boundary. A whole-string view returns its
      backing string (retaining it retains exactly those bytes); a
      narrower view is copied out. *)

  val equal : t -> t -> bool
  (** Content equality, no allocation. *)
end

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit

  val varint : t -> int -> unit
  (** LEB128 of a non-negative int. *)

  val bytes : t -> string -> unit
  (** Length-prefixed (varint) byte string. *)

  val raw : t -> string -> unit
  (** Raw bytes, no prefix — for fixed-size fields like digests. *)

  val slice : t -> Slice.t -> unit
  (** Length-prefixed (varint) slice — [bytes] without materialising
      the payload as a string first. *)

  val pad : t -> int -> unit
  (** [n] zero bytes — simulated payload that occupies frame bytes —
      recorded as a run: no byte is written, and {!length} counts
      them. *)

  val bool : t -> bool -> unit

  val length : t -> int
  (** Bytes written, zero runs included. *)

  val piece : t -> Sparse.t
  (** What was written, as a piece with its own backing: the literal
      bytes copied once, the runs as counts. *)

  val contents : t -> string
  (** What was written, zeros written out. *)

  val crc : t -> pos:int -> len:int -> int
  (** CRC-32 of a range of the written bytes, in place: literal bytes
      through the native kernel, runs by {!Crc32.update_zeros}. *)

  val reserve : t -> int -> int
  (** Append [n] literal zero bytes and return their offset — a header
      slot to patch once trailing content (length, checksum) is known,
      so frames build front-to-back in one pass. *)

  val patch_u32 : t -> int -> int -> unit
  (** [patch_u32 t off v] overwrites 4 already-written literal bytes
      at [off] with little-endian [v]. Raises [Invalid_argument] if
      they are not written or not all literal. *)

  val patch_u8 : t -> int -> int -> unit

  val capacity : t -> int
  (** Bytes of storage the writer holds (for pooling). *)

  val clear : t -> unit
  (** Empty the writer, keeping its internal storage (pooling). *)

  val reset : t -> unit
  (** Empty the writer and release oversized internal storage. *)
end

module Reader : sig
  type t

  exception Underflow
  (** Raised when reading past the end of input — malformed message. *)

  val of_string : string -> t

  val of_slice : Slice.t -> t
  (** Zero-copy reader over a slice's window. *)

  val of_piece : Sparse.t -> t
  (** Zero-copy reader over a piece. Every primitive returns exactly
      what it returns over [Sparse.to_string p]; a read, {!view} or
      {!raw} that straddles a zero run writes out only the bytes it
      returns, and {!skip} over a run is O(1). *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val varint : t -> int
  val bytes : t -> string
  val raw : t -> int -> string

  val view : t -> int -> Slice.t
  (** Zero-copy {!raw}: borrow the next [n] bytes as a slice of the
      backing buffer (copied out only when they straddle a zero run).
      The borrow rules of {!Slice} apply. *)

  val view_bytes : t -> Slice.t
  (** Length-prefixed (varint) {!view}. *)

  val expect_raw : t -> string -> unit
  (** Compare the next bytes against a fixed string in place (magic
      numbers, format tags) — no allocation. Raises {!Malformed} on
      mismatch, {!Reader.Underflow} if too short. *)

  val skip : t -> int -> unit
  (** Advance past [n] bytes without materialising them. *)

  val sub : t -> int -> t
  (** [sub t n] narrows the next [n] bytes into a fresh reader sharing
      the same backing string (zero-copy) and advances [t] past them —
      the lazy-body path: frame dispatch can skip or defer a body
      without copying it. Raises {!Underflow} if fewer than [n] bytes
      remain. *)

  val sub_bytes : t -> t
  (** Length-prefixed (varint) {!sub}. *)

  val piece : t -> int -> Sparse.t
  (** The next [n] bytes as a piece sharing the backing (runs stay
      counts), advancing past them. Raises {!Underflow} if fewer than
      [n] bytes remain. *)

  val seq_len : t -> int
  (** A varint element count, validated against [remaining] (every
      element costs ≥ 1 byte). Raises {!Malformed} on an implausible
      count, bounding allocation on adversarial input. *)

  val bool : t -> bool
  val remaining : t -> int
  val at_end : t -> bool
end

val varint_size : int -> int
(** Encoded size of a varint, for size computations. *)
