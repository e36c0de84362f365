(** Deterministic pseudo-random numbers (SplitMix64).

    Every experiment takes a single integer seed; all randomness —
    network latency draws, transaction payloads, Byzantine partition
    choices, proposer permutations — derives from it, so a run is
    reproducible bit-for-bit. [split] derives an independent stream,
    which keeps component randomness stable when unrelated components
    change how much randomness they consume. *)

type t

val create : int -> t
(** Seeded generator. *)

val split : t -> t
(** Derive an independent generator (advances the parent). *)

val named_split : t -> string -> t
(** Independent generator keyed by a label; unlike [split] it does not
    advance the parent, so streams are stable under reordering. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. Exactly uniform for every bound up to and including
    [max_int]: power-of-two bounds are masked, others drawn by
    rejection sampling (the naive [mod] would carry a modulo bias of
    up to [bound/2^62] per residue — negligible below bound ≈ 2^32
    but material near [max_int]). May consume more than one raw draw
    from the stream; determinism per seed is unaffected. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed draw. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal draw ([mu], [sigma] of the underlying normal). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
