(** Structured micro-benchmark results — the BENCH_<area>.json
    trajectory.

    [measure] runs a kernel in geometrically growing batches under a
    host-time quota, fits ns/run by ordinary least squares (per-batch
    overhead lands in the intercept) and reads allocated words/run off
    the Gc counters; [to_json]/[of_json] give the stable, versioned
    on-disk schema that {!Compare} gates regressions against. *)

type kernel = {
  k_name : string;
  k_area : string;  (** "crypto" | "codec" | "substrate" | "kernels" *)
  k_ns_per_run : float;  (** OLS slope over (runs, ns) batch samples *)
  k_minor_words_per_run : float;
  k_major_words_per_run : float;
  k_runs : int;  (** total measured runs behind the estimates *)
}

type file = {
  f_area : string;
  f_host : string;  (** host fingerprint: hostname/os/word-size *)
  f_ocaml : string;  (** [Sys.ocaml_version] of the producer *)
  f_commit : string;  (** git commit, or "unknown" outside a checkout *)
  f_mode : string;  (** quota used: "smoke" | "default" | "full" *)
  f_kernels : kernel list;
}

val schema_version : int

val host_fingerprint : unit -> string

type quota = {
  q_ms : float;  (** host-time budget per kernel *)
  q_min_samples : int;
  q_max_batch : int;
}

val smoke_quota : quota
(** ~60 ms/kernel — CI gating. *)

val default_quota : quota
val full_quota : quota

val measure :
  ?quota:quota -> name:string -> area:string -> (unit -> unit) -> kernel
(** One warmup run (outside every counter), then measured batches
    until the quota and minimum sample count are both satisfied. *)

val alloc_per_run : ?runs:int -> (unit -> unit) -> float * float
(** [(minor_words, major_words)] allocated per run — exact for a
    deterministic kernel; the committed allocation pins use this. *)

val to_json : file -> string

val of_json : string -> (file, string) result
(** Validates the schema name and version and every kernel field —
    decoding {e is} schema validation. [of_json (to_json f)] succeeds
    and round-trips every field exactly. *)

val write_file : dir:string -> file -> string
(** Write [to_json] to [dir/BENCH_<area>.json]; returns the path. *)

val read_file : string -> (file, string) result
