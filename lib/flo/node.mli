(** A FLO node (§6.2): ω FireLedger workers used as a blockchain-based
    ordering service, merged round-robin.

    Workers run asynchronously to each other (compensating for
    FireLedger's rotating-proposer synchronisation and idle CPU while
    one worker waits), but delivery to the application consumes the
    workers' definite blocks in a fixed round-robin order, preserving
    one total order across the node. A write request goes to the least
    loaded worker ("client manager"); delivery of a block is the
    paper's event E.

    Creation is two-phase to break the worker/node cycle: create the
    node, pass {!output_for} to each worker's [Instance.create], then
    {!attach_workers}. *)

open Fl_sim
open Fl_chain

type delivery = {
  worker : int;
  round : int;
  block : Block.t;
  times : Fl_fireledger.Instance.block_times;
  delivered_at : Time.t;  (** event E *)
}

type t

val create :
  engine:Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  node_id:int ->
  n_workers:int ->
  ?keep_log:bool ->
  ?on_deliver:(delivery -> unit) ->
  ?obs:Fl_obs.Obs.t ->
  unit ->
  t
(** [keep_log] (default false) retains every delivered transaction for
    the {!read} path — examples only; benchmarks keep it off. [obs]
    adds a ["flo"] category ["merge_wait"] span (D → E) and a
    ["deliver"] instant per delivered block. Independent of [obs],
    every delivery records the {!Fl_obs.Decomp} phase histograms
    ([phase_*]) into [recorder] — they telescope to [latency_e2e]. *)

val output_for : t -> worker:int -> Fl_fireledger.Instance.output
(** The output sink to pass to worker [worker]'s [Instance.create]. *)

val attach_workers : t -> Fl_fireledger.Instance.t array -> unit

val submit : t -> Tx.t -> bool
(** Client write path: route to the least-loaded worker's pool at
    fee 0 ([submit_fee ~fee:0]). *)

val submit_fee : t -> Tx.t -> fee:int -> bool
(** Fee-priority write path: {!Fl_chain.Mempool.admit} on the
    least-loaded worker's pool. [false] is backpressure — the pool is
    full and [fee] does not beat its lowest pending bid. *)

val delivered_blocks : t -> int

val read : t -> int -> Tx.t option
(** Client read path: the i-th transaction in the node's merged
    delivery order, if already definitely delivered (requires
    [keep_log]). *)
