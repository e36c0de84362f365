(** Periodic durable snapshots: the definite chain prefix (headers
    always, bodies where not pruned) plus an opaque application payload
    and its state hash. A snapshot at definite round [upto] supersedes
    every WAL record about rounds [<= upto] (see {!Wal.truncate});
    recovery reloads it and replays only the WAL suffix.

    The image is two nested {!Fl_wire.Envelope}s (tag 0): an FLSNAP1
    frame holding [magic | upto | era | app | app_hash] and the FLCHAIN1
    frame, byte for byte {!Fl_chain.Serial.encode_chain} of the store
    truncated to [upto] and pruned to the store's boundary.

    Sealing is incremental: {!seal} keeps each per-interval segment of
    the previous image whose bytes cannot have changed and builds only
    the rest. A segment is one {!Fl_wire.Sparse} piece per round, not
    a string of its own: a round the node's {!Wal} logged takes the
    piece of its Append frame, and only the other rounds are encoded.
    Synthetic padding stays a zero run in {!piece}; only {!encode}
    writes it out. Segment and
    frame CRCs are assembled with {!Fl_wire.Crc32.combine}. The result
    is byte-identical to a from-scratch {!build}. *)

type t = private {
  upto : int;  (** definite rounds 0..upto are contained *)
  era : int;  (** completed recoveries at snapshot time *)
  app : string;  (** opaque application payload ([""] = no app) *)
  app_hash : string;  (** application state hash at [upto] *)
  chain : Fl_wire.Sparse.t;
      (** the FLCHAIN1 frame, borrowed from the decoded image *)
}
(** A decoded snapshot. *)

type image
(** A sealed snapshot: immutable, encoded in segments. *)

val seal :
  prev:image option -> wal:Wal.t option -> store:Fl_chain.Store.t ->
  upto:int -> era:int -> app:string -> app_hash:string -> image option
(** The image of [store]'s rounds [0..upto], reusing the still-valid
    segments of [prev] and the block encodings [wal] holds
    ({!Wal.encoded_block}). [None] when the store does not reach
    [upto]. *)

val build :
  store:Fl_chain.Store.t -> upto:int -> era:int -> app:string ->
  app_hash:string -> image option
(** [seal ~prev:None ~wal:None]: a one-off snapshot. *)

val length : image -> int
(** Encoded byte length, without encoding. *)

val segments : image -> (int * int * Fl_wire.Sparse.t list) list
(** Each segment's first round, last round and its rounds' pieces, in
    order. A segment kept from the previous image returns the very
    same list. *)

val piece : image -> Fl_wire.Sparse.t
(** The image as one piece (a fresh backing holding its literal bytes;
    zero runs stay counts) — what a restart reads. *)

val encode : image -> string
(** The image's bytes, zeros written out — what state transfer ships. *)

val decode : Fl_wire.Sparse.t -> (t, string) result
(** [Error] on a bad envelope, CRC, magic or trailing bytes. *)

val restore_chain : t -> (Fl_chain.Store.t, string) result
