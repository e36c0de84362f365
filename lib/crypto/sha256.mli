(** SHA-256 (FIPS 180-4).

    Used for block hashes and as the PRF underlying the
    simulated signature scheme. Incremental ([init]/[feed]/[finalize])
    and one-shot ([digest]) interfaces are provided. Digests are
    32-byte [string] values.

    The compression rounds run in a portable C kernel that absorbs
    every whole 64-byte block of a feed in one call; staging, padding
    and HMAC are OCaml. There is one implementation and no CPU
    dispatch. *)

type t
(** Mutable hashing context. *)

val init : unit -> t
(** Fresh context. *)

val feed_bytes : t -> ?off:int -> ?len:int -> bytes -> unit
(** Absorb a byte range. Raises [Invalid_argument] on bad range. *)

val feed_string : t -> ?off:int -> ?len:int -> string -> unit
(** Absorb a substring. *)

val finalize : t -> string
(** Produce the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot digest of a string. *)

val digest_with : (t -> unit) -> string
(** [digest_with feed] runs [feed] on a fresh context and returns its
    digest — the incremental interface as one call, attributed to
    [Fl_prof]'s sha256 frame like {!digest}. [feed] must not suspend
    the calling fiber. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104) of a message under [key]. *)

type key
(** An HMAC key, prepared: the chaining states after its ipad and opad
    blocks. *)

val hmac_key : string -> key
(** Prepare a key: two compressions, not bracketed as an [Fl_prof]
    sha256 call (a key longer than 64 bytes is {!digest}ed first, and
    that is). *)

val hmac_keyed : key -> string -> string
(** [hmac_keyed (hmac_key key) msg = hmac ~key msg], without absorbing
    the key pads again. *)

val digest_size : int
(** 32. *)
