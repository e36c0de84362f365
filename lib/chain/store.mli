(** A node's local copy of the blockchain.

    The store holds one block per round, append-only except for
    [replace_suffix], which the recovery procedure uses to adopt an
    agreed version of the last (at most f+1, tentative) rounds.
    [append] enforces the hash-chain invariant; protocol-level checks
    (proposer rotation, external validity) live with the protocols. *)

type t

type error =
  | Wrong_round of { expected : int; got : int }
  | Broken_link  (** prev_hash does not match our last block *)
  | Body_mismatch  (** header does not commit to the carried txs *)

val pp_error : Format.formatter -> error -> unit

val create : unit -> t

val length : t -> int
(** Number of stored blocks = the next round to fill. *)

val last_hash : t -> string
(** Hash the next block must link to ([Block.genesis_hash] when
    empty). *)

val get : t -> int -> Block.t option
(** Block at a round, if stored. *)

val last : t -> Block.t option

val hash : t -> int -> string option
(** Header hash of the block at a round, if stored (memoised: no
    re-hash). *)

val append : ?check_body:bool -> t -> Block.t -> (unit, error) result
(** [check_body] (default true) re-verifies the body commitment;
    callers that already verified the body through a content-addressed
    path may skip it. *)

val sub : t -> from:int -> Block.t list
(** Blocks from round [from] (inclusive) to the tip, in order. *)

val replace_suffix : t -> from:int -> Block.t list -> (unit, error) result
(** Discard rounds >= [from] and append the given blocks; the first
    must link to the round [from−1] block. Used only by recovery. *)

val iter : t -> (Block.t -> unit) -> unit

val prune : t -> keep_from:int -> unit
(** Drop transaction bodies of blocks below [keep_from] (headers and
    hashes stay). Bounds memory over long runs; pruned rounds can no
    longer serve block pulls. *)

val pruned_below : t -> int
(** Lowest round whose body is still retained (0 if never pruned). *)

val check_integrity : t -> bool
(** Full hash-chain walk — test/debug aid, O(length). *)
