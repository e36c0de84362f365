(** Fork accountability: equivocation evidence — two valid headers one
    proposer signed for the same (round, prev_hash) slot — collected,
    deduplicated and reliably broadcast. Owns [evidence_log] and the
    evidence broadcast tag. *)

val note_evidence : ?relay:bool -> State.t -> Types.evidence -> unit
(** Record valid, not yet known evidence; unless [relay] is false (it
    arrived by the evidence broadcast), broadcast it onward. *)

val consider_conflict :
  ?known_valid:bool -> State.t -> Types.signed_header -> Types.signed_header -> unit
(** Two signed headers claiming one slot with different content are
    evidence. [known_valid] skips re-verifying signatures already
    checked on arrival. *)
