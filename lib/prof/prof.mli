(** Simulator self-profiling: host-time attribution to subsystems.

    Accumulating monotonic-clock timers behind the same discipline as
    {!Fl_sim.Engine.set_probe} / {!Fl_sim.Cpu.set_probe}: off by
    default, one load-and-branch when off, observe-only when on —
    enabling profiling never perturbs the simulation, so traces stay
    byte-identical (pinned-fingerprint tested).

    Instrumented sites bracket a region with {!frame}, guarded on
    {!on} so that the closure is built only when profiling:

    {[
      if !Fl_prof.Prof.on then Fl_prof.Prof.frame Fl_prof.Prof.sha256 work
      else work ()
    ]}

    With profiling off a site costs one load-and-branch and allocates
    nothing. With it on, the frame is balanced on every exit: a normal
    return and an exception both close it.

    Frames nest; each subsystem is credited with {e self} time only
    (elapsed minus nested frames), so per-subsystem numbers sum to the
    inclusive host time of the outermost frames — engine dispatch
    encloses everything executed from the event loop, which is how
    [fl_trace prof] attributes ≳90% of a run's wall time.

    Instrumented regions must not suspend the calling fiber: an open
    frame across an effect-based suspension would corrupt the frame
    stack. All current sites (engine dispatch, event-queue pops, codec,
    SHA-256, WAL framing, obs push) are pure. *)

type sub = private int

val engine : sub
(** Engine dispatch: the body of every executed event, i.e. all
    protocol logic, fiber resumption and scheduling — everything not
    claimed by a nested subsystem below. *)

val codec_encode : sub  (** {!Fl_wire.Envelope.seal} and its writers *)

val codec_decode : sub
(** {!Fl_wire.Envelope.open_sub} + {!Fl_wire.Msg_codec.decode_frame} *)

val sha256 : sub  (** digest/hmac, wherever called from *)

val wal : sub  (** durable-record framing and replay parsing *)

val obs : sub  (** structured-span sink push *)

val queue : sub
(** The engine's run loop taking the next event off its queues: heap
    pops and zero-delay FIFO pops, cancelled events included. Pushes
    happen inside event bodies and stay with {!engine}. *)

val on : bool ref
(** The master switch instrumented sites read. Use {!enable} /
    {!disable} rather than flipping it directly. *)

val enable : unit -> unit
(** Reset all accumulators and start profiling. *)

val disable : unit -> unit

val reset : unit -> unit

val frame : sub -> (unit -> 'a) -> 'a
(** [frame sub f] runs [f] inside a frame of [sub]: {!enter}, [f ()],
    {!leave}. The frame closes whether [f] returns or raises; an
    exception is re-raised after the frame is closed. *)

val enter : sub -> unit
val leave : unit -> unit
(** Close the innermost open frame. {!frame} balances the pair on
    every exit; a direct [enter]/[leave] caller must do so itself. *)

type stat = { p_sub : sub; p_name : string; p_self_ns : int; p_calls : int }

val stats : unit -> stat list
(** One entry per subsystem in declaration order (stable). *)

val attributed_ns : unit -> int
(** Sum of all self-times — total host time attributed. *)

val set_clock_for_tests : (unit -> int64) option -> unit
(** Swap the clock for a deterministic one ([None] restores the
    monotonic stub). Tests only. *)
