(** Epoch reconfiguration (DESIGN.md §5e): successor epochs scheduled
    from definite blocks, their activation, and the two fibers that
    serve other nodes' membership changes — the snapshot donor joiners
    state-transfer from and the receiver of a leaver's transaction
    handoff. Owns [epochs], [active_epoch], [snap_cache] and
    [reconfig_fibers]. *)

val snap_chunk_bytes : int
(** Wire chunk size of a state-transfer snapshot stream. *)

val ensure_reconfig_fibers : State.t -> unit
(** Spawn the snapshot-donor and handoff fibers, once. *)

val note_reconfig : State.t -> round:int -> Fl_chain.Block.t -> unit
(** Schedule the successor epoch a newly definite block decides, if
    it carries reconfiguration transactions. *)

val rebuild_epochs : State.t -> unit
(** Rebuild the schedule from the definite prefix after a whole chain
    was adopted, and activate the epoch governing the current round. *)

val refresh_epoch : State.t -> unit
(** Activate the epoch governing the current round, if it changed:
    swap the rotation's members and re-seat the proposer cursor. *)
