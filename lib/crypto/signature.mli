(** Simulated digital signatures.

    The paper uses ECDSA over secp256k1. Inside a closed simulation all
    we need from signatures is (i) an unforgeable binding of a message
    to a node identity and (ii) a realistic CPU cost. We implement (i)
    with a key registry: every node identity owns an HMAC-SHA-256 key
    derived from a registry seed, and a signature on [m] is
    [HMAC(sk_i, m)]. Protocol code never touches another node's secret
    key, so within the simulation signatures are unforgeable — Byzantine
    equivocation is modeled explicitly, never by key theft. (ii) is
    handled by {!Cost_model}, which charges simulated time using the
    paper's own §7.1 formula.

    The verifier-side API mirrors an asymmetric scheme: verification
    needs only the registry (the "PKI"), a signer identity, the message
    and the signature. *)

type registry
(** The simulated PKI: one keypair per node identity. *)

type signature = string
(** [length] bytes. *)

val length : int
(** 32: every signature [sign] makes is this long, so a decoder can
    reject any other length at the wire boundary. *)

val create_registry : seed:string -> n:int -> registry
(** PKI for node identities [0..n-1]. Deterministic in [seed]. A
    signer's HMAC midstates ({!Sha256.hmac_key}) are prepared on its
    first {!sign} or {!verify}. *)

val sign : registry -> signer:int -> string -> signature
(** Sign [msg] as node [signer]. Raises [Invalid_argument] on an
    unknown identity. *)

val verify : registry -> signer:int -> msg:string -> signature -> bool
(** Check a signature. Total: returns [false] on any mismatch. *)
