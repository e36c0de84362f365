(** Client transactions.

    A transaction is an opaque payload of [size] bytes submitted by a
    client. Benchmark workloads generate *synthetic* transactions that
    carry only their declared size — the simulator never materialises
    megabytes of random bytes per block; the CPU cost of hashing those
    bytes is charged through {!Fl_crypto.Cost_model}, and on the wire
    {!Serial.encode_tx} pads the frame to the declared size so the NIC
    model sees the true byte count. The padding is a zero run of the
    frame's {!Fl_wire.Sparse} piece: counted in its length, its CRC and
    every byte it stands for, but never written out on the hot path.
    Application examples use real payloads. *)

type t = { id : int; size : int; payload : string }
(** [payload] is [""] for synthetic transactions; [size] is the
    authoritative byte count either way. *)

val create : id:int -> size:int -> t
(** Synthetic transaction. *)

val create_payload : id:int -> string -> t
(** Transaction with a real payload ([size] = payload length). *)

val digest : t -> string
(** 32-byte commitment: SHA-256 of the payload when present, a
    canonical id-derived tag otherwise. *)

val equal : t -> t -> bool
