(** Per-experiment metrics sink.

    One recorder is shared by all nodes of a run. Protocols bump named
    counters (messages, signatures, recoveries, decided blocks/txs) and
    observe named latency histograms; the harness reads them out to
    print the paper's tables.

    There is one kind of counter, and each holds two values: its
    whole-run count and its in-window count. Every {!add} adds to the
    first; it adds to the second too when the clock of the engine given
    to {!create} reads inside the measurement window [\[start, stop)]
    declared by {!set_window}. So a count is stamped by the simulated
    time of the event that bumps it, and any name can be read either
    way: {!counter} for the whole run, {!windowed_count} and
    {!rate_per_s} for the window, which lets steady-state rates
    exclude start-up transients. Histograms are whole-run. *)

open Fl_sim

type t

val create : Engine.t -> t
(** An empty recorder whose counts are stamped by this engine's
    clock. *)

(* Counters *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit
(** Add to the name's whole-run count, and to its in-window count when
    the engine clock is inside the window. *)

val counter : t -> string -> int
(** Whole-run count (0 for a name never bumped). *)

(* Histograms (nanosecond samples) *)

val observe : t -> string -> int -> unit
val histogram : t -> string -> Histogram.t option

(* The measurement window *)

val set_window : t -> start:Time.t -> stop:Time.t -> unit
(** Declare the measurement window [\[start, stop)]. It applies to the
    counts made after the call; raises [Invalid_argument] when empty. *)

val windowed_count : t -> string -> int
(** In-window count (0 before [set_window]). *)

val rate_per_s : t -> string -> float
(** In-window count per second of window (0 before [set_window]). *)

val counters : t -> (string * int * int option) list
(** Every counter once, sorted by name: its whole-run count and its
    in-window count ([None] before [set_window]). *)

val histograms : t -> (string * Histogram.t) list
(** All histograms, sorted by name — the Prometheus exporter walks
    this to render quantile summaries. *)
