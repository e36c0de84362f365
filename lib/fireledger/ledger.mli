(** The local chain: tentative appends, the definiteness horizon
    (f + 2 rounds, Algorithm 2), garbage collection, and the two ways
    the chain jumps — adopting a whole chain and replacing a suffix.
    Every change to [store] goes through this module, which keeps
    [signed_headers], [times], [pool_txs] and the WAL in step with it. *)

val accept_block :
  State.t -> Types.proposal -> Fl_chain.Tx.t array -> header_at:Fl_sim.Time.t -> unit
(** Append a delivered block tentatively, mark the block of f + 2
    rounds ago definite, and advance the round and proposer cursors. *)

val mark_definite : State.t -> unit
(** Mark every block at depth > f + 2 definite (in round order). *)

val reseat : State.t -> unit
(** Re-seat the proposer cursor on the chain tip after a jump. *)

val adopt_chain :
  State.t -> Fl_chain.Store.t -> definite:int -> era:int -> at_boot:bool -> unit
(** Seed a fresh instance with a whole chain, its definiteness
    watermark and era; re-hashing the bodies is charged to the CPU, or
    folded into the boot delay when [at_boot]. *)

val replace_suffix :
  State.t -> from:int -> (Fl_chain.Block.t * string) list -> int
(** Replace the chain from round [from] on with signed blocks ([[]]
    drops the suffix); our own replaced proposals re-queue their
    client transactions and the WAL mirrors the change. Returns the
    number of rescinded blocks. *)
