(** Canonical serialization of chain data — the wire/disk format.

    Blocks and whole chains round-trip through the {!Fl_wire.Codec}
    format; [save]/[load] persist a node's ledger to disk so a
    restarted node resumes from its last definite prefix instead of
    replaying the network's history. The format is versioned and
    self-describing enough to reject corrupt or truncated files. *)

val encode_tx : Fl_wire.Codec.Writer.t -> Tx.t -> unit
(** Wire-true: synthetic transactions are padded to their declared
    [size], so an encoding's length is the true NIC charge. The
    padding is a zero run of the writer ({!Fl_wire.Codec.Writer.pad}),
    so a sealed frame holds it as a count. *)

val decode_tx : Fl_wire.Codec.Reader.t -> Tx.t

val encode_txs : Fl_wire.Codec.Writer.t -> Tx.t array -> unit
(** Count-prefixed transaction sequence. *)

val decode_txs : Fl_wire.Codec.Reader.t -> Tx.t array
(** Inverse of {!encode_txs}; the claimed count is validated against
    the bytes present before allocating. *)

val encode_header : Fl_wire.Codec.Writer.t -> Header.t -> unit
val decode_header : Fl_wire.Codec.Reader.t -> Header.t

val encode_block : Fl_wire.Codec.Writer.t -> Block.t -> unit

val read_block : Fl_wire.Codec.Reader.t -> Block.t
(** Structural parse only (raises {!Fl_wire.Codec.Reader.Underflow} /
    {!Fl_wire.Codec.Malformed} on bad input); commitment checks are
    the caller's — the wire path must observe a mismatched body to
    classify it as Byzantine. *)

val decode_block : Fl_wire.Codec.Reader.t -> (Block.t, string) result
(** Structural decode plus commitment re-check: the decoded body must
    match the header's [body_hash]. *)

val block_to_string : Block.t -> string
val block_of_string : string -> (Block.t, string) result
(** Inverse of {!block_to_string}. A standalone block is never pruned,
    so a header-only encoding ([tx_count > 0], no transactions) is an
    [Error] here; {!decode_block} accepts it inside chains and
    snapshots. *)

val encode_chain : Store.t -> Fl_wire.Sparse.t
(** The whole store (pruned bodies encode as empty; their headers are
    marked so integrity checks stay meaningful after reload), as one
    CRC-sealed {!Fl_wire.Envelope} — byte corruption anywhere in the
    image is detected even where the structural decode would not see
    it (e.g. inside synthetic-transaction padding). *)

val write_chain_header :
  Fl_wire.Codec.Writer.t -> length:int -> pruned_below:int -> unit
(** The fields that open an {!encode_chain} body, ahead of the blocks
    — for sealers that assemble the body from pre-encoded block runs. *)

val decode_chain : Fl_wire.Sparse.t -> (Store.t, string) result
(** Rebuild a store, re-validating the envelope CRC and every hash
    link. *)

val save : Store.t -> path:string -> unit
val load : path:string -> (Store.t, string) result
