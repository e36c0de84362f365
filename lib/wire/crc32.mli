(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) — the frame
    checksum of the wire envelope and of the write-ahead log.

    Every digest is a plain [int] holding the 32-bit checksum
    (the standard final xor applied), so ["123456789"] digests to
    [0xCBF43926]. *)

val digest_int : string -> int

val digest_int_sub : string -> pos:int -> len:int -> int
(** Digest of [s.[pos] .. s.[pos + len - 1]]. Raises
    [Invalid_argument] on a range outside [s]. *)

val digest_int_bytes_sub : bytes -> pos:int -> len:int -> int
(** Same over a [bytes] region — the in-place sealing path, where a
    frame body still sits in a writer's buffer. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update (digest_int a) s ~pos ~len] is the digest of [a] followed
    by [s.[pos] .. s.[pos + len - 1]]: a digest continued over a
    string assembled in pieces. Raises [Invalid_argument] on a range
    outside [s]. *)

val update_zeros : int -> int -> int
(** [update_zeros (digest_int a) n] is [digest_int (a ^ String.make n
    '\000')], computed in O(log n) without any zero byte: how a frame
    with {!Sparse} zero runs is checksummed. Raises [Invalid_argument]
    on a negative [n]. *)

val combine : int -> int -> int -> int
(** [combine (digest_int a) (digest_int b) (String.length b)] is
    [digest_int (a ^ b)], computed in O(log len) without reading the
    bytes — how a frame assembled from already-checksummed pieces gets
    its CRC. Raises [Invalid_argument] on a negative length. *)
