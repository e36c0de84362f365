(** Domain-parallel map over independent simulation runs.

    Sweeps (N seeds × M configs) are embarrassingly parallel: each run
    builds its own engine, cluster and RNG stream. [map] shards the
    index space across OCaml 5 domains and merges by index, so results
    are identical to the sequential order regardless of [jobs]. *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [[| f 0; ...; f (n-1) |]], computed by up to
    [jobs] domains pulling indices from a shared counter. [jobs <= 1]
    (or [n <= 1], or the self-profiler being on — its accumulation
    state is global) runs plainly sequential. An exception in any
    [f i] is re-raised (with its backtrace) after all domains join.
    Raises [Failure] with a clear message if [jobs > 1] on a runtime
    that cannot spawn domains. *)

val ensure_available : unit -> unit
(** Raises [Failure] with an actionable message when this runtime
    cannot spawn and join a domain. *)

val resolve_jobs : ?cli:int -> unit -> int
(** The [--jobs] / [FL_JOBS] knob: an explicit CLI value [>= 1] wins,
    else the [FL_JOBS] environment variable, else 1. Raises [Failure]
    on a malformed value. *)
