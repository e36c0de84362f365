(** Aggregate open-loop traffic source — millions of clients, O(1)
    fibers.

    One tick fiber draws a Poisson count of arrivals per tick from the
    compound {!Arrivals} rate and submits them in aggregate; per-client
    state (submit time, fee bid, retry count, Zipfian account) is a
    table entry, and backpressured clients retry through {e cohorts}:
    every client whose backoff expires in the same quantum shares a
    single wake-up event.

    The source is decoupled from the ledger stack: it writes through an
    injected [sink] and learns outcomes via {!note_block} /
    {!note_evicted}. Client-observed latency (submit → final, queueing
    and retries included) is recorded through
    {!Fl_obs.Decomp.record_client}, so
    [phase_admission_wait + client_consensus = latency_client_e2e]
    telescopes exactly. *)

open Fl_sim
open Fl_chain

type consistency =
  | Session
      (** read-your-writes: a read is fresh iff this source has no
          unfinalized write on the account *)
  | Bounded_staleness of Time.t
      (** a read is fresh iff the replica's finalized frontier is at
          most this far behind now *)

type config = {
  source_id : int;  (** namespaces transaction ids across sources *)
  arrivals : Arrivals.t;
  tick : Time.t;  (** aggregation quantum (default 1 ms) *)
  tx_size : int;
  accounts : int;  (** Zipfian key space *)
  zipf_s : float;
  fee_levels : int;  (** fee bids in [0, fee_levels), Zipf-skewed low *)
  max_retries : int;
  retry_backoff : Time.t;  (** also the cohort bucketing quantum *)
  read_ratio : float;  (** reads per write (0 = write-only) *)
  consistency : consistency;
}

val default_config : arrivals:Arrivals.t -> config
(** 1 ms tick, 128 B txs, 10{^6} accounts at s = 1.01, 16 fee levels,
    3 retries at 5 ms, no reads, session consistency. *)

type t

val create :
  Engine.t ->
  rng:Rng.t ->
  recorder:Fl_metrics.Recorder.t ->
  sink:(Tx.t -> fee:int -> bool) ->
  config ->
  t
(** [sink] is the admission attempt (e.g.
    [Fl_flo.Node.submit_fee node]); [false] means backpressure. *)

val start : t -> unit
(** Spawn the tick fiber (run from within the engine, or before
    [Engine.run]). *)

val stop : t -> unit
(** Stop generating; clients still waiting in retry cohorts drain as
    dropped. *)

val note_block : t -> Tx.t array -> a:Time.t -> final:Time.t -> unit
(** Feed a definitely-delivered block: [a] is the block's event-A
    (body built — end of admission queueing), [final] its merge
    emission. Transactions not from this source are ignored. *)

val note_evicted : t -> Tx.t -> fee:int -> unit
(** Feed the mempool's eviction signal
    ({!Fl_chain.Mempool.set_on_evict}). *)

type stats = {
  generated : int;  (** arrivals produced *)
  admitted : int;  (** accepted by the sink (after any retries) *)
  backpressured : int;  (** refused submission attempts (each retry
                            that fails counts again) *)
  retried_txs : int;  (** distinct transactions that retried at all *)
  dropped : int;  (** gave up after [max_retries] *)
  evicted : int;  (** displaced by fee priority, signalled *)
  finalized : int;  (** definitely delivered *)
  pending : int;  (** admitted, outcome not yet known *)
  retrying : int;  (** parked in retry cohorts right now *)
  reads : int;
  reads_stale : int;  (** reads violating the consistency option *)
}

val stats : t -> stats
(** Conservation holds at any instant:
    [generated = finalized + dropped + evicted + pending + retrying]
    (+ the current tick's in-flight attempts, zero between ticks). *)

val pending_ids : t -> int list
(** Ids admitted but not yet finalized/evicted — the set the
    no-silent-drop oracle checks against pool + in-flight contents. *)

val recorder : t -> Fl_metrics.Recorder.t
