(** Network-interface bandwidth model.

    Each node owns one NIC, shared by all its FLO workers — this
    sharing is what eventually caps tps as ω grows. Transmissions
    serialise FIFO on the sender's NIC (a broadcast of a block to
    n−1 peers pays n−1 serialisations — the clique-overlay cost the
    paper discusses), and arrivals serialise on the receiver's NIC.

    The model is analytic, not fiber-based: [tx_finish]/[rx_finish]
    advance per-direction "next free" cursors and return completion
    times, so a single [Engine.schedule] per message suffices. *)

open Fl_sim

type t

val create : bandwidth_bps:float -> t
(** Full-duplex NIC with the given per-direction bandwidth. *)

val ten_gbps : float
(** 10 Gb/s in bits per second — the paper's m5.xlarge link ("up to
    10 Gbps"). *)

val serialization : t -> int -> Time.t
(** Wire time for a frame of the given byte size (at least 1 ns). *)

val tx_backlog : t -> now:Time.t -> Time.t
(** How far the transmit cursor is ahead of [now] — the queueing delay
    the next outgoing frame would see before its first byte leaves.
    [0] when the NIC is idle. *)

val tx_finish : t -> now:Time.t -> bytes:int -> Time.t
(** Enqueue an outgoing frame; returns when its last byte leaves. *)

val rx_finish : t -> arrival:Time.t -> bytes:int -> Time.t
(** Enqueue an incoming frame at [arrival]; returns when its last byte
    has been received. *)

val bytes_sent : t -> int
val bytes_received : t -> int
