(** BFT-SMaRt-like baseline deployment (Figure 17): the
    {!Fl_consensus.Pbft} replication engine under a closed-loop
    transaction load.

    Every node keeps up to a window of its own transactions in flight;
    the view leader batches them (β per PRE-PREPARE) and the three-
    phase O(n²) protocol orders them. Metrics use the same recorder
    series as FLO ("txs_delivered", "latency_e2e"), so the harness can
    print them side by side. *)

open Fl_sim

val encode_msg : Fl_chain.Tx.t Fl_consensus.Pbft.msg -> Fl_wire.Sparse.t
(** The baseline's wire codec: PBFT's in-body codec under a one-tag
    envelope, wire-true transactions as payloads. *)

val decode_msg : Fl_wire.Sparse.t -> Fl_chain.Tx.t Fl_consensus.Pbft.msg option
(** Total inverse of {!encode_msg}. *)

type node

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  n : int;
  f : int;
  nodes_ : node option array;
      (** every slot is filled by {!create}; the option lets each
          replica's delivery callback be built before its node *)
  window : int;
  tx_size : int;
}

val create :
  ?seed:int ->
  ?latency:Fl_net.Latency.t ->
  ?cost:Fl_crypto.Cost_model.t ->
  ?cores:int ->
  ?bandwidth_bps:float ->
  n:int ->
  f:int ->
  batch_size:int ->
  tx_size:int ->
  unit ->
  t
(** Every node keeps one batch (β transactions) in flight, so measured
    latency reflects the protocol rather than queueing. *)

val start : t -> unit
val run : ?until:Time.t -> t -> unit

val delivered : t -> int
(** Transactions executed at replica 0. *)
