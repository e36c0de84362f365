(** Chained HotStuff (Yin et al., PODC'19) — the paper's strongest
    comparison baseline (Figure 16), implemented from scratch on the
    same simulation substrate as FireLedger.

    Structure: a rotating leader per view proposes a block extending
    the highest quorum certificate; every replica signs a vote sent to
    the next leader; n−f votes form the next QC (modelled as an
    aggregated signature); a block commits when it heads a 3-chain of
    consecutive-view QCs — three-round finality. A basic pacemaker
    (per-view doubling timeouts, NEW-VIEW messages to the next leader)
    provides view synchronisation.

    The performance-relevant contrasts with FireLedger are faithful:
    every replica signs every block (n signatures per decision vs
    FireLedger's 1), the leader verifies a quorum of votes, and each
    view is a proposal-plus-vote round trip (vs one communication
    step). *)

open Fl_sim

(** {1 Wire codec} *)

type qc = { qc_view : int; qc_hash : string }

type hs_block = {
  b_view : int;
  b_parent : string;
  b_justify : qc;
  b_txs : Fl_chain.Tx.t array;
  b_hash : string;
  b_created : Time.t;
}

type msg =
  | Proposal of hs_block
  | Vote of { view : int; hash : string }
  | New_view of { view : int; qc : qc }

val encode : msg -> Fl_wire.Sparse.t
(** One envelope per message (tags 0–2); a proposal's synthetic
    padding is a zero run, counted in the length the NIC charges. *)

val decode : Fl_wire.Sparse.t -> msg option
(** Total inverse of {!encode}. *)

(** {1 Cluster} *)

type replica
(** One HotStuff replica's private state. *)

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  n : int;
  f : int;
  replicas : replica option array;  (** [None] = crashed from start *)
}

val create :
  ?seed:int ->
  ?latency:Fl_net.Latency.t ->
  ?cost:Fl_crypto.Cost_model.t ->
  ?cores:int ->
  ?bandwidth_bps:float ->
  ?crashed:(int -> bool) ->
  n:int ->
  f:int ->
  batch_size:int ->
  tx_size:int ->
  unit ->
  t
(** Build and wire a HotStuff cluster under full load (every proposal
    carries a full block of [batch_size] transactions of [tx_size]
    bytes). [crashed] marks replicas that never start. *)

val start : t -> unit
val run : ?until:Time.t -> t -> unit

val committed_blocks : t -> int
(** Blocks committed at replica 0. *)

val chains_agree : t -> bool
(** All live replicas committed the same block sequence prefix. *)
