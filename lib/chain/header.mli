(** Block headers — the part of a block that travels through the
    consensus path.

    A header cryptographically commits to its entire ancestry
    ([prev_hash]) and to its block body ([body_hash]); this is the
    "authentication data" FireLedger exploits to detect Byzantine
    equivocation without extra messages: a correct proposer's header at
    round r pins down everyone's view of rounds < r. *)

type t = private {
  round : int;            (** chain position, 0-based *)
  proposer : int;         (** node identity that created the block *)
  prev_hash : string;     (** hash of the round r−1 header *)
  body_hash : string;     (** commitment to the transaction list *)
  tx_count : int;
  body_size : int;        (** sum of transaction payload bytes *)
  enc : string;           (** derived: {!encode} *)
  hash : string;          (** derived: {!hash} *)
}
(** [enc] and [hash] are derived fields (DESIGN.md §5f): {!make}, the
    one constructor, computes them once from the six content fields,
    so every later read of a header's encoding or hash is a field read.
    They are never serialized and are functions of content only, so
    structural equality keeps its meaning. *)

val make :
  round:int ->
  proposer:int ->
  prev_hash:string ->
  body_hash:string ->
  tx_count:int ->
  body_size:int ->
  t
(** Build a header and its derived fields. *)

val encode : t -> string
(** Canonical byte encoding — the exact string that is hashed and
    signed. A field read. *)

val hash : t -> string
(** SHA-256 of [encode]. A field read. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
