(** A deterministic key-value state machine.

    Every replica applies the same command sequence (FireLedger's
    total order) and must reach bit-identical state; [state_hash]
    makes that checkable in O(n) and snapshots make it portable.
    Iteration orders are canonicalised (sorted keys), never
    hash-table order. *)

type t

type outcome = Applied | Cas_failed | No_effect

val create : unit -> t
val apply : t -> Command.t -> outcome
val get : t -> string -> string option
val size : t -> int

val state_hash : t -> string
(** SHA-256 over the sorted bindings — equal iff states are equal. *)

val snapshot : t -> string
(** Canonical serialized state. *)

val restore : string -> (t, string) result
