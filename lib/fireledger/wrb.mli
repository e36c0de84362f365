(** Weak reliable broadcast (Algorithm 1) with the §6.1.1
    optimizations: block bodies disseminated out of band (clique or
    gossip) ahead of the proposer's turn, the stash of signed
    proposals, our own proposals (signed at most once per slot), the
    OBBC vote with the next proposal piggybacked, and the pull phase
    for a decided block we miss. Also the §7.4.2 equivocating
    proposer. Owns [bodies], [body_arrival], [stash], [prepared],
    [own_in_flight], [my_signed], [open_obbcs] and the arrival pulse,
    and fills [fetched] and [pool_txs]. *)

val propose : State.t -> k:int -> unit
(** Proposer duties at the start of a round whose proposer is [k]:
    push our proposal after a failed attempt, or pre-disseminate the
    next body when we expect to propose next. *)

val deliver :
  State.t ->
  k:int ->
  (Types.proposal * Fl_chain.Tx.t array * Fl_sim.Time.t) option
(** WRB-deliver the current round's block from proposer [k]: the
    proposal, its body and the time its header arrived, or [None]
    when OBBC decided 0. Raises [Race.Aborted] on panic. *)

val max_stash_round : State.t -> int
(** Highest round any stashed signed proposal claims (−1 if none). *)

val request :
  State.t ->
  r:int ->
  timeout:Fl_sim.Time.t ->
  abort:unit Fl_sim.Ivar.t option ->
  until:(unit -> bool) ->
  unit
(** Ask every peer for round [r]'s block (Req/Reply) and wait, at most
    [timeout], until [until] holds. Replies land in the stash, the
    body table and [fetched], each filling the arrival pulse. *)

val spawn_fibers : State.t -> unit
(** Spawn the push, body and reply receivers. *)
