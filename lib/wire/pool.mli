(** Pooled writers — the per-message encode fast path.

    A small domain-local free list of cleared {!Codec.Writer.t}s, so
    steady-state encoding allocates only the final frame string. A
    returned writer keeps the storage it grew up to a fixed bound
    (1 MiB), so large recurring frames reuse one buffer while one
    outsized frame cannot pin memory. *)

val with_writer : (Codec.Writer.t -> 'a) -> 'a
(** [with_writer f] runs [f] on a cleared writer and returns the writer
    to the pool afterwards, also when [f] raises. The writer must not
    escape [f]. Nesting is safe. *)
