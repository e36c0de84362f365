(** Structured-span observability.

    A sink collects attributed events — spans with begin/end in
    simulated time, instants, and gauge samples — from every layer of
    the stack: the sim engine and CPU model, the network, consensus,
    FireLedger instances, the FLO merge and the harness. Each event
    carries [(node, worker, round)] attribution (any of which may be
    [-1] = not applicable) plus a category and free-form string args.

    Design rules, in force everywhere a sink is threaded:

    - {b Zero-cost off}: every emitter takes a [t option]; [None]
      short-circuits before any formatting or allocation.
    - {b Observe-only}: emitting never schedules engine events, never
      draws from an RNG and never mutates protocol state, so a run
      with a sink installed reaches the same metrics and ledgers as
      the same run without one.
    - {b Bounded}: the sink is a ring buffer (oldest events evicted,
      eviction counted) so long runs cannot exhaust memory.

    Sinks are drained by {!Export} into Chrome trace-event JSON
    (Perfetto), JSONL and Prometheus text. *)

open Fl_sim

type kind =
  | Span of { t_begin : Time.t; t_end : Time.t }
  | Instant of { at : Time.t }
  | Gauge of { at : Time.t; value : float }

type event = {
  seq : int;  (** emission order, monotone across the whole run *)
  cat : string;  (** layer: "sim", "net", "consensus", "fireledger", "flo", "harness" *)
  name : string;
  node : int;  (** -1 = cluster-wide *)
  worker : int;  (** -1 = not worker-specific *)
  round : int;  (** -1 = not round-specific *)
  kind : kind;
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Bounded sink (default capacity 1_000_000 events; oldest evicted
    first and counted in {!dropped}). *)

val enabled : t option -> bool
(** [true] iff a sink is installed — for emitters that would pay a
    non-trivial price just to assemble the event. *)

val span :
  t option ->
  cat:string ->
  name:string ->
  ?node:int ->
  ?worker:int ->
  ?round:int ->
  ?args:(string * string) list ->
  t_begin:Time.t ->
  t_end:Time.t ->
  unit ->
  unit
(** A completed interval. [t_end < t_begin] is stored as-is (exporters
    clamp for display); emitters should not clamp, so that derived
    decompositions stay exactly telescoping. *)

val instant :
  t option ->
  cat:string ->
  name:string ->
  ?node:int ->
  ?worker:int ->
  ?round:int ->
  ?args:(string * string) list ->
  at:Time.t ->
  unit ->
  unit

val gauge :
  t option -> cat:string -> name:string -> ?node:int -> at:Time.t -> float ->
  unit
(** Sample a named gauge. Besides the ring-buffer event, the last
    value per (name, node) is retained for the Prometheus snapshot. *)

val events : t -> event list
(** Oldest first (ring-buffer contents only). *)

val count : t -> int
(** Total emitted, including evicted. *)

val dropped : t -> int

val fingerprint : t -> string
(** 64-bit FNV-1a, as 16 hex digits, over every field of the retained
    events (floats by bit pattern) folded with {!count}. Computed on
    demand, so emitting pays nothing for it. Two runs of the same
    seeded configuration produce the same fingerprint. *)

val gauges : t -> (string * int * float) list
(** Last value of every gauge as [(name, node, value)], sorted — a
    deterministic snapshot regardless of hash-table iteration order. *)

val time_of : event -> Time.t
(** The event's representative time ([t_begin] for spans). *)

(* Probe installers for the layers below this library in the
   dependency order (fl_sim cannot depend on fl_obs): *)

val attach_engine : t -> Engine.t -> unit
(** Install an {!Fl_sim.Engine.set_probe} that emits ["engine_pending"]
    / ["engine_events"] gauges every 4096 executed events — a sampled
    view of fiber-wakeup pressure. *)

val attach_cpu : t -> node:int -> Cpu.t -> unit
(** Install a {!Fl_sim.Cpu.set_probe} that emits one ["cpu_busy"] span
    per completed charge on the node's track — the CPU-model busy
    time. *)
