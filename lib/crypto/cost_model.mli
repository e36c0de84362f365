(** CPU cost model for cryptographic operations, in nanoseconds of
    simulated time.

    Paper §7.1 models the time to sign a block of β transactions of σ
    bytes each as [t_sign = β·σ·t_hash + C]: the transactions are
    hashed and the fixed-size header is signed. We keep the same shape
    and add a verification constant. Defaults are calibrated to the
    m5.xlarge-class numbers behind the paper's Figure 5 (JVM ECDSA
    secp256k1: ~0.8 ms per signature constant, ~10 ns/byte hashing);
    {!Fl_harness} overrides them per machine profile (e.g. c5.4xlarge
    for Figures 16–17). *)

type t = {
  hash_ns_per_byte : float;  (** throughput term of hashing *)
  sign_const_ns : float;     (** fixed cost of one asymmetric sign *)
  verify_const_ns : float;   (** fixed cost of one asymmetric verify *)
}

val default : t
(** m5.xlarge-class calibration (4 vCPU, JVM crypto). *)

val c5_4xlarge : t
(** c5.4xlarge-class calibration (16 vCPU, faster cores) used by the
    paper for the HotStuff / BFT-SMaRt comparison. *)

val hash_cost : t -> bytes:int -> int
(** Nanoseconds to hash [bytes] bytes. *)

val sign_cost : t -> bytes:int -> int
(** Nanoseconds to hash-and-sign a payload of [bytes] bytes. *)

val signatures_per_second : t -> payload_bytes:int -> cores:int -> float
(** Aggregate signing rate of [cores] parallel signers — the analytic
    counterpart of the paper's Figure 5 measurement. *)
