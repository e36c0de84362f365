(** Recovery (Algorithm 3): a proof of chain inconsistency — two
    signed headers of consecutive rounds that do not link — is reliably
    broadcast; every correct node then submits its version of the last
    f + 1 blocks through atomic broadcast, adopts the longest valid
    version among the first n − f it delivers, and bumps its era. Owns
    [pending_proofs], [handled_recoveries], [version_boxes] and the
    proof broadcast tag; also sweeps received versions for
    equivocation evidence. *)

val version_box : State.t -> int -> Types.version Fl_sim.Mailbox.t
(** The mailbox collecting delivered versions for a recovery round. *)

val enqueue_proof : State.t -> Types.proof -> unit
(** Queue a valid proof for a not yet handled recovery round and
    abort the current round's waits. *)

val handle_panics : State.t -> unit
(** Run every queued recovery, lowest round first. *)

val prove_inconsistency : State.t -> Types.signed_header -> bool
(** Lines b4–b10: a delivered header that does not extend our tip,
    against our signed header of the previous round, is a proof —
    broadcast it and recover. [false] when it is unprovable here (the
    caller fails the round instead). *)
