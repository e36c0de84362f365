(** Per-node durability facade — what a FireLedger instance (or one
    FLO worker) talks to. Owns a {!Wal} on a (possibly shared)
    {!Disk}, the snapshot slot, the sync policy and the application
    hooks; it survives instance rebuilds, so a cold restart recovers
    from here.

    Lifecycle: [log_*] on the hot path while live; {!power_fail} at a
    crash freezes the media at the durable watermark (optionally with
    a torn tail); {!recover} at restart parses the media back into
    node state and goes live again. No engine event while the sync
    policy is [Never] and no snapshot triggers, and none at all for
    runs that never construct a node — which keeps persistence-off
    traces byte-identical. *)

type sync_policy =
  | Never  (** fsync only for snapshots *)
  | Group_commit of Fl_sim.Time.t  (** a flusher fiber fsyncs every span *)
  | Every_block  (** fsync after every appended block *)

type config = {
  profile : Disk.profile;
  sync : sync_policy;
  segment_bytes : int;  (** WAL segment size *)
  snapshot_interval : int;  (** definite rounds between snapshots; 0 = off *)
}

val default_config : config
(** NVMe, 2 ms group commit, 64 KiB segments, a snapshot every 64
    definite rounds. *)

type stats = {
  s_fsyncs : int;
  s_snapshots : int;
  s_recovers : int;
  s_replayed : int;  (** WAL records applied across recoveries *)
  s_torn_discards : int;
  s_bytes : int;  (** bytes written to the device *)
}

type t
(** A node's durable log, snapshots and media. *)

val create :
  Fl_sim.Engine.t -> ?obs:Fl_obs.Obs.t -> ?node:int -> ?worker:int ->
  ?disk:Disk.t -> ?app:Recovery.app -> config:config -> unit -> t
(** [disk] shares one device between a node's workers; by default the
    node gets its own, of [config.profile]. Raises [Invalid_argument]
    on a [Group_commit] span that is not positive: its flusher would
    never let simulated time advance. *)

val disk : t -> Disk.t

val attach_chain : t -> (unit -> Fl_chain.Store.t * int * int) -> unit
(** The attached instance's chain, definite watermark and era — what a
    snapshot captures. *)

val live : t -> bool
val stats : t -> stats

val sync : t -> unit
(** Flush everything appended so far; blocks the calling fiber. *)

val maybe_start_flusher : t -> unit
(** Start the group-commit flusher fiber, once, under that policy. *)

val take_snapshot : t -> store:Fl_chain.Store.t -> upto:int -> era:int -> unit
(** Seal a snapshot at [upto] now; its write, fsync and the WAL
    truncation it allows run in a background fiber. *)

val log_append : t -> block:Fl_chain.Block.t -> signature:string -> unit
val log_truncate : t -> from:int -> unit

val log_watermark : t -> upto:int -> era:int -> unit
(** A bare definiteness/era watermark that feeds no block to the
    application. *)

val log_definite : t -> upto:int -> era:int -> Fl_chain.Block.t -> unit
(** [block] became definite: apply it to the application, log the
    watermark and take a snapshot when the interval is due. *)

val power_fail : t -> torn:bool -> unit
(** Freeze the media at the durability watermark; [torn] leaves a
    partial fragment of the first in-flight frame. *)

val lose_media : t -> unit
(** Full media loss: nothing survives. *)

val media_bytes : t -> int
(** Bytes on the frozen media (snapshot + WAL) — the boot read of a
    restart. Meaningful between {!power_fail} and {!recover}. *)

val recover : t -> Recovery.recovered option
(** Parse the frozen media back into node state and go live again.
    [None] = nothing durable (first boot, or the media was lost). *)
