(** Byte strings that keep their zero runs as counts.

    A synthetic transaction's payload is zero padding of its declared
    size ({!Fl_chain.Serial.encode_tx}), so most of a block-carrying
    frame can be zeros. {!Codec.Writer.pad} records such padding as a
    run instead of writing it, and the writer's output is a piece: its
    literal bytes plus [(position, count)] runs. The piece goes on the
    wire as it is (the NIC is charged {!length}, zeros included), is
    read back through {!Codec.Reader.of_piece}, lands in WAL frames and
    snapshot images, and is checksummed by {!crc} without a zero byte
    ever being written or read. Its bytes become real only where they
    are read out as bytes ({!to_string}).

    A piece is immutable: a window over a backing of literal bytes and
    runs, which {!sub} and {!Codec.Reader.piece} share. The borrow rule
    of {!Codec} applies: whatever retains a piece past the frame it
    came from retains the whole backing, so it takes a copy
    ({!concat}). *)

type t = private {
  lits : string;  (** the backing's literal bytes *)
  runs : int array;
      (** the backing's runs: flat [(at, n)] pairs, [n > 0] zeros just
          before [lits.[at]], [at] strictly increasing; any pairs after
          the last run hold [max_int] *)
  pos : int;  (** where the window starts in [lits] *)
  run : int;  (** the first run with [at >= pos] *)
  skip : int;
      (** when run [run] stands at [pos]: its zeros that lie before the
          window *)
  len : int;  (** the window's length, zeros included *)
}
(** The fields are readable for {!Codec}'s reader; only the
    constructors below build one. *)

val unsafe_make :
  lits:string -> runs:int array -> pos:int -> run:int -> skip:int -> len:int -> t
(** A piece from fields that already satisfy the invariants above —
    {!Codec}'s writer and reader, which keep them. Not checked. *)

val of_string : string -> t
(** The whole string as a piece without runs — no copy. *)

val of_sub : string -> pos:int -> len:int -> t
(** A window of a string as a piece without runs — no copy. Raises
    [Invalid_argument] out of range. *)

val no_runs : int array
(** The empty run table. *)

val at : int array -> int -> int
(** [at runs k]: where run [k] stands, [max_int] past the last. *)

val length : t -> int
(** The number of bytes the piece stands for. *)

val sub : t -> pos:int -> len:int -> t
(** The bytes [[pos, pos+len)] of the piece, sharing its backing;
    O(runs before [pos]). Raises [Invalid_argument] out of range. *)

val concat : t list -> t
(** The pieces one after the other, as a piece with a fresh backing
    that holds only their bytes (literal bytes copied, runs kept as
    counts) — also the copy-on-retain of one piece. *)

val crc : t -> int
(** [Crc32.digest_int (to_string t)], computed from the literal bytes
    and {!Crc32.update_zeros} per run: no zero byte is read. *)

val to_string : t -> string
(** The piece's bytes as one string; a whole string without runs is
    returned as it is. *)
