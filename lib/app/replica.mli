(** One node's view of the replicated application: consumes the FLO
    node's totally-ordered delivery stream, applies well-formed
    commands to the {!Kv} state machine exactly once per
    (session, seq), and exposes the local read path.

    Wiring: pass {!deliver} into the FLO cluster's [on_deliver] (see
    [examples/kvstore.ml]), or use {!Client} for the submit side. *)

type t

val create : unit -> t

val deliver : t -> Fl_flo.Node.delivery -> unit
(** Apply every command in a delivered block, in order. Malformed
    payloads and (session, seq) replays are skipped deterministically —
    every replica skips exactly the same ones. *)

val get : t -> string -> string option
val state_hash : t -> string

val applied : t -> int
(** Commands applied (including CAS failures — they consumed their
    sequence number). *)

val skipped_malformed : t -> int
val skipped_replays : t -> int

val session_seq : t -> session:int -> int
(** Highest *contiguous* sequence number applied for a session (−1 if
    none) — the client recovery path after a reconnect. Session
    commands may be delivered out of order (FLO spreads one session's
    submissions across workers), so later seqs can be applied before
    this watermark catches up. *)

module Client : sig
  (** A client session: numbers its commands and routes them to a FLO
      node, giving exactly-once semantics end-to-end even when the
      client retries submissions. *)

  type client

  val create : session:int -> node:Fl_flo.Node.t -> client

  val submit : client -> Command.t -> bool
  (** [false] when the node's pool applied backpressure; the sequence
      number is not consumed and the next submit retries it. *)

  val submitted : client -> int
end
