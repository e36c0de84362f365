(** Catching up without consensus, beyond the paper's algorithms: the
    catch-up sync of a laggard (pull definite-agreed blocks wholesale,
    rescinding a dead tentative suffix), the per-round pull, the
    [Req] service every node answers, and the two membership-change
    paths of a node outside the active epoch — a joiner's chunked
    state transfer and a leaver's transaction handoff. Consumes
    [fetched]. *)

val maybe_catch_up : State.t -> unit
(** Pull blocks wholesale when the stash shows the cluster far ahead
    of the current round. Raises [Race.Aborted] on panic. *)

val pull_round : State.t -> r:int -> timeout:Fl_sim.Time.t -> bool
(** Pull round [r]'s block and append it if it extends the tip;
    [true] on progress. *)

val observer_step : State.t -> unit
(** One scheduling step of a node outside the active membership:
    state transfer, then tip-following, for a joiner; handoff, then
    quiet, for a leaver. *)

val spawn_service_fiber : State.t -> unit
(** Spawn the fiber answering peers' [Req]s from the chain or the
    stash. *)
