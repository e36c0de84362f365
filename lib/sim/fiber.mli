(** Cooperative fibers over the event engine, via OCaml 5 effects.

    A fiber is ordinary OCaml code that may block — on a timer
    ({!sleep}), a {!Mailbox}, an {!Ivar} or a {!Cpu} core. Blocking is
    a [Suspend] effect: the fiber hands the scheduler a [resume]
    thunk and is continued when the awaited event fires. This is what
    lets the consensus protocols be written exactly like the paper's
    pseudocode ("wait until a valid (m, sig) has been received or
    timer has expired") while running on a deterministic virtual
    clock. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** Start a fiber at the current instant. An exception escaping the
    fiber aborts the whole run (protocols are expected not to leak). *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling fiber; [register] receives
    the resume function and must arrange for it to be called exactly
    once (or never, to park the fiber forever). Must be called from
    within a fiber. *)

val sleep : Engine.t -> Time.t -> unit
(** Block for the given duration of virtual time. *)

val never : unit -> 'a
(** Park the calling fiber forever. *)
