(** Segmented append-only write-ahead log.

    Each record is a sealed {!Fl_wire.Envelope} frame (record kind =
    envelope tag, CRC included) behind a [u32] length prefix, appended
    to the active segment; a segment seals once it exceeds
    [segment_bytes]. Durability is a frame-count watermark advanced
    after an fsync; a power failure keeps exactly the durable prefix,
    optionally plus a torn fragment of the first non-durable frame,
    which {!replay_media} detects (length underflow or CRC mismatch)
    and discards.

    The log holds its frames as the {!Fl_wire.Sparse} pieces its
    writer made: an Append's synthetic padding is a zero run, not
    bytes, in the log and on the media {!power_fail_image} leaves. *)

type record =
  | Append of { block : Fl_chain.Block.t; signature : string }
      (** a tentatively decided block, with the proposer's header
          signature so a recovered node can serve pulls and versions *)
  | Truncate of { from : int }
      (** recovery adopted a version: rounds >= [from] were replaced
          by the Appends that follow this record *)
  | Definite of { upto : int; era : int }
      (** definiteness watermark and completed-recovery count *)

val round_of : record -> int
(** The round a record concerns. *)

val encode_record : record -> Fl_wire.Sparse.t
(** The record's sealed envelope (without the length prefix). *)

val decode_record : Fl_wire.Sparse.t -> (record, string) result
(** Inverse of {!encode_record}; [Error] on any malformed frame. *)

type t

val create : segment_bytes:int -> t

val append : t -> record -> int
(** Append one record; returns the framed byte count — the disk write
    the caller accounts for. An Append also records where its block's
    encoding sits in the frame, for {!encoded_block}. *)

val encoded_block : t -> Fl_chain.Block.t -> (Fl_wire.Sparse.t * int) option
(** The encoding of [block] and its CRC-32, as a piece of the Append
    frame that logged it — when the log still holds that very value
    (physically equal) at its round. Entries for a round [<= upto] go
    with {!truncate}, all of them with {!reset_to_frames}. *)

val build_frame : t -> record -> Fl_wire.Sparse.t
(** One record's framed bytes — [u32 length | sealed envelope] — built
    in the log's reusable scratch buffer, as the writer's piece; what
    {!append} appends. *)

val mark_durable : t -> unit
(** Every frame appended so far is durable. *)

val mark_durable_upto : t -> int -> unit
(** Frames up to [n], a {!total_frames} reading taken before the fsync
    was issued, are durable; frames appended since are not. *)

val pending_frames : t -> int
val total_frames : t -> int
val segments : t -> int
val truncated_segments : t -> int

val power_fail_image : t -> torn:bool -> Fl_wire.Sparse.t
(** The media a power failure leaves: the durable frames, plus — when
    [torn] and a non-durable frame exists — a fragment of the first
    non-durable frame cut mid-frame. One piece with a fresh backing;
    zero runs stay counts. *)

val reset_to_frames : t -> (Fl_wire.Sparse.t * int) list -> unit
(** Replace the log's contents with recovered frames (each with its
    record's round, as {!replay} gives them), all durable. No block
    encoding is recorded for them. *)

val truncate : t -> upto:int -> int
(** Drop the sealed segments whose records all concern rounds
    [<= upto] (superseded by a snapshot), and the block encodings of
    those rounds; returns how many segments. *)

type replay = {
  records : record list;  (** oldest first, valid prefix only *)
  frames : (Fl_wire.Sparse.t * int) list;
      (** the same prefix's verified frames, as read off the media and
          copied out of it, each with its record's round *)
  torn : bool;  (** a partial or corrupt tail was detected and discarded *)
}

val replay_media : Fl_wire.Sparse.t -> replay
(** Parse a media image into its valid record prefix, stopping at the
    first length underflow, CRC mismatch or undecodable record. *)
