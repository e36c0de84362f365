(** Pure-OCaml SHA-256 (FIPS 180-4).

    Used for block hashes, Merkle trees and as the PRF underlying the
    simulated signature scheme. Incremental ([init]/[feed]/[finalize])
    and one-shot ([digest]) interfaces are provided. Digests are
    32-byte [string] values. *)

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

val digest_bytes : bytes -> string
(** One-shot digest of a byte buffer. *)

val hmac : key:string -> string -> string
(** HMAC-SHA-256 (RFC 2104) of a message under [key]. *)

val digest_size : int
(** 32. *)
