(** Membership epochs: decided reconfiguration riding the chain.

    An epoch is a sorted member set drawn from the fixed simulation
    universe, plus the first round it governs. A reconfiguration
    transaction decided in the block at round [r] schedules its
    successor epoch at round [r + f + 3] — past the definiteness
    horizon, so every correct node installs the schedule entry before
    any node can reach the activation round. Membership at a round is
    a pure function of the definite chain prefix. *)

type change = Join of int | Leave of int

type t = {
  index : int;  (** 0 = genesis; +1 per decided reconfiguration block *)
  activation : int;  (** first round governed by this epoch *)
  members : int array;  (** sorted ascending, node ids in the universe *)
}

val genesis : ?members:int list -> universe:int -> unit -> t
(** Epoch 0. Default members: the whole universe. *)

val members : t -> int array
val n : t -> int
(** Active member count — the quorum denominator for this epoch. *)

val f : t -> int
(** [(n - 1) / 3] of the active member count. *)

val is_member : t -> int -> bool

val succeed : universe:int -> t -> change list -> activation:int -> t option
(** Fold a decided block's changes over [t]'s members (skipping
    invalid ones) and build the successor epoch, or [None] if the
    membership is unchanged. *)

val change_of_payload : string -> change option
(** O(1) rejection of ordinary payloads (magic prefix check);
    fail-closed on malformed reconfiguration frames. *)

val reconfig_tx : change -> Fl_chain.Tx.t
(** Wrap a change as an ordinary transaction (deterministic id in a
    reserved range; the payload is magic + version + kind + varint
    node id). *)

val changes_of_block : Fl_chain.Block.t -> change list
(** All reconfiguration changes carried by a block, in tx order. *)
