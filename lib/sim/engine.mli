(** The discrete-event engine: a virtual clock and an event queue.

    Events run in (time, seq) order, [seq] counting [schedule] calls,
    so events scheduled for the same instant run in scheduling (FIFO)
    order, which makes runs deterministic. Everything else in the
    simulator — fibers, timers, network delivery, CPU charging — is
    built from [schedule].

    The queue is two queues. Untagged events scheduled with delay 0
    (fiber wake-ups, mostly) go into a FIFO ring; every other event
    goes into a binary min-heap on (time, seq). A zero-delay event is
    due now and takes the largest [seq] so far, and the clock never
    moves back, so the ring is sorted by (time, seq) as it fills: each
    step runs whichever head comes first, in the same total order a
    single heap would give. Lane-tagged events always stay in the heap,
    where an arbiter sees them. *)

type t

type handle
(** A scheduled event; can be cancelled before it fires. *)

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val schedule : ?lane:int -> t -> delay:Time.t -> (unit -> unit) -> handle
(** Run the action [delay] ns from now. A negative delay is clamped
    to 0. [lane] is commutativity metadata for the model checker:
    [-1] (the default) marks the event untagged — it always runs in
    canonical time order — while a lane id [>= 0] names the single
    state component the event acts on (in practice the destination
    node of a message delivery), which exposes it to an installed
    {!set_arbiter} chooser as a reorderable branch point. Events on
    different lanes commute; events on the same lane do not. *)

val cancel : handle -> unit
(** Cancelled events are skipped; cancelling twice is a no-op. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Process events in time order until the queue drains, [stop] is
    called, or virtual time would exceed [until] (the clock is then
    left at [until], or where it was if that is later: the clock never
    moves back, so an [until] below {!now} runs nothing). [max_events]
    additionally bounds the number of non-cancelled events executed by
    this call — a step budget that guards adversarial-schedule
    exploration against runaway event storms; when it is exhausted the
    clock is left at the last executed event (not advanced to [until])
    and [pending] > 0 reveals the truncation. *)

val stop : t -> unit
(** Make [run] return after the current event. *)

val pending : t -> int
(** Number of queued (possibly cancelled) events in both queues, heap
    and zero-delay FIFO — for tests. *)

val processed : t -> int
(** Events executed so far — for tests and sanity reporting. *)

type pick = Deliver of int | Drop of int
(** Arbiter verdict over the candidate frontier: deliver candidate
    [i] now, or drop it (the message is lost, as if the wire ate
    it). Indices refer to the [lanes] array the chooser was given. *)

val set_arbiter :
  ?horizon:Time.t -> t -> (lanes:int array -> pick) option -> unit
(** Install (or remove, with [None]) a deterministic branch-point
    hook. With an arbiter installed, whenever the earliest queued
    event is tagged ([lane >= 0]) the engine collects the frontier —
    every tagged, non-cancelled event within [horizon] (default 50us)
    of it — sorts it by (time, seq) and asks the chooser which
    candidate to deliver or drop. The chosen event executes at the
    frontier-opening instant, so the clock never overtakes the
    candidates put back in the queue; the rest (including all
    untagged events in the window) are re-queued untouched and keep
    their original order. With no arbiter installed the engine is
    byte-identical to the plain time-ordered scheduler. The chooser
    must be deterministic for replayable enumeration. *)

val arbiter_dropped : t -> int
(** Number of events discarded by arbiter [Drop] verdicts. *)

val set_probe :
  t -> (now:Time.t -> processed:int -> pending:int -> unit) option -> unit
(** Observability hook, invoked synchronously after every executed
    (non-cancelled) event with the clock, the cumulative event count
    and the queue depth ({!pending}). The probe must only observe — it
    must not schedule, cancel or stop, or determinism is forfeit. [None]
    (the default) is free. This is how the {!Fl_obs} layer samples
    fiber-wakeup activity without the engine depending on it. *)
