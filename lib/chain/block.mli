(** Blocks: a header plus the ordered transaction list it commits to. *)

type t = { header : Header.t; txs : Tx.t array }

val genesis_hash : string
(** [prev_hash] of the round 0 block. *)

val create :
  round:int -> proposer:int -> prev_hash:string -> Tx.t array -> t
(** Build a block, computing the body commitment. *)

val body_hash : Tx.t array -> string
(** SHA-256 over the concatenated transaction digests (order-
    sensitive). *)

val hash : t -> string
(** The block's identity = its header hash. *)

val body_matches : t -> bool
(** Does the header's [body_hash] commit to exactly these
    transactions? *)

val equal : t -> t -> bool
