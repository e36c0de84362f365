(** The restart path: reload the latest durable snapshot, replay the
    WAL suffix (skipping what the snapshot already covers, discarding a
    torn tail), and hand back the reconstructed node state. *)

type app = {
  app_apply : Fl_chain.Block.t -> unit;  (** a block became definite *)
  app_snapshot : unit -> string;
  app_restore : string -> bool;  (** [false] = payload rejected *)
  app_reset : unit -> unit;  (** back to the genesis state *)
  app_hash : unit -> string;
}
(** Application hooks: a recovered node restores the app from the
    snapshot payload, or resets it and re-applies the definite
    prefix when the payload is unusable. *)

type recovered = {
  r_store : Fl_chain.Store.t;
  r_sigs : (int * string) list;
      (** proposer header signatures recovered from WAL appends,
          oldest first — snapshot rounds carry none *)
  r_definite : int;  (** definite watermark, [-1] = none *)
  r_era : int;
  r_torn : bool;  (** a torn/corrupt WAL tail was discarded *)
  r_records : int;  (** WAL records applied *)
  r_frames : (Fl_wire.Sparse.t * int) list;
      (** the media's valid WAL prefix as verified frames (copied out
          of the media) with their rounds, oldest first — the live log
          restarts from these *)
  r_from_snapshot : bool;
  r_snapshot_upto : int;
      (** [upto] of the snapshot on the media, [-1] = none readable *)
}

val run :
  snapshot_media:Fl_wire.Sparse.t option -> wal_media:Fl_wire.Sparse.t ->
  app:app option -> recovered
(** Both media are pieces, as a node's {!Snapshot.piece} and
    {!Wal.power_fail_image} leave them: their CRCs are checked and
    their records decoded stepping over zero runs, so no padding byte
    is written out. Raw bytes go in as {!Fl_wire.Sparse.of_string}. *)
