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
    the previous image whose bytes cannot have changed and encodes only
    the rest; both frame CRCs are assembled with
    {!Fl_wire.Crc32.combine}. The result is byte-identical to a
    from-scratch {!build}. *)

type t = private {
  upto : int;  (** definite rounds 0..upto are contained *)
  era : int;  (** completed recoveries at snapshot time *)
  app : string;  (** opaque application payload ([""] = no app) *)
  app_hash : string;  (** application state hash at [upto] *)
  chain : string;  (** the FLCHAIN1 frame *)
}
(** A decoded snapshot. *)

type image
(** A sealed snapshot: immutable, encoded in segments. *)

val seal :
  prev:image option -> store:Fl_chain.Store.t -> upto:int -> era:int ->
  app:string -> app_hash:string -> image option
(** The image of [store]'s rounds [0..upto], reusing the still-valid
    segments of [prev]. [None] when the store does not reach [upto]. *)

val build :
  store:Fl_chain.Store.t -> upto:int -> era:int -> app:string ->
  app_hash:string -> image option
(** [seal ~prev:None]: a one-off snapshot. *)

val length : image -> int
(** Encoded byte length, without encoding. *)

val segments : image -> (int * int * string) list
(** Each segment's first round, last round and encoded bytes. *)

val encode : image -> string
val decode : string -> (t, string) result
(** [Error] on a bad envelope, CRC, magic or trailing bytes. *)

val restore_chain : t -> (Fl_chain.Store.t, string) result
