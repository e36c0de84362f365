(** Invariant oracles, evaluated continuously against cluster output.

    One {!t} watches an entire cluster through per-node
    {!Fl_fireledger.Instance.output} sinks ({!output_for}) and flags:

    - {b definite-order}: [on_definite] fires exactly once per round,
      in round order, per node;
    - {b agreement}: all nodes report the same block hash for the same
      definite round (definite-prefix agreement, streamed);
    - {b chain}: every definite block hash-links to the node's
      previous definite block;
    - {b rotation}: any f+1 consecutive definite blocks carry f+1
      distinct proposers (the b1–b3 skip rule's guarantee);
    - {b rescission-depth}: a recovery rescinds at most f+1 blocks
      (only the tentative suffix is up for grabs);
    - {b definite-rescinded}: after a recovery, the node's store still
      holds every block the oracle saw it mark definite;
    - {b evidence-malformed} / {b evidence-codec}: every
      equivocation-evidence object a node collects is a same-slot
      header conflict and round-trips through its wire codec
      (streamed);
    - {b evidence-invalid} / {b false-accusation} /
      {b accountability}: end-of-run accountability checks — evidence
      carries valid signatures, accuses only faulty nodes, and (when
      an expected set is supplied and a rescinding fork ran) names the
      injected equivocators exactly;
    - {b epoch-fork}: every node reports each scheduled epoch with the
      same activation round and member set (no two chains across an
      epoch change);
    - {b epoch-proposer}: a definite block's proposer belongs to the
      epoch governing its round (a vote counted under the wrong
      epoch's quorum could only surface as an outsider's block
      deciding);
    - {b transfer}: a state-transferred snapshot prefix matches the
      canonical definite chain block-for-block;
    - {b liveness} / {b integrity} / final agreement: end-of-run
      checks performed by {!finish}.

    Oracles never mutate the run; a healthy execution must produce
    zero violations (tested over fault-free seeds). *)

type violation = {
  oracle : string;  (** which invariant: "agreement", "rotation", … *)
  at : Fl_sim.Time.t;
  node : int;  (** observing node (-1 for cluster-wide checks) *)
  round : int;  (** affected round (-1 when not applicable) *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t

val create :
  ?members:int list -> now:(unit -> Fl_sim.Time.t) -> n:int -> f:int ->
  unit -> t
(** [now] timestamps violations (pass the cluster engine's clock; a
    thunk because the oracle is typically built before the cluster
    whose outputs it watches). [members] is the genesis membership
    (default: the whole universe) — the baseline of the canonical
    epoch schedule the epoch oracles check against. *)

val output_for : t -> int -> Fl_fireledger.Instance.output
(** The sink to install as node [i]'s [output] (tee it with the real
    sink via {!Fl_fireledger.Instance.tee_output} if one exists). *)

val attach_stores : t -> Fl_chain.Store.t array -> unit
(** Give the rescission oracle read access to the nodes' stores; call
    after [Cluster.create], before the run — and again after a cold
    restart replaced an instance (the old store is stale). *)

val note_restart : t -> int -> unit
(** Node [i] cold-restarted: its next definite report legitimately
    rewinds the per-node stream cursor (the recovered/caught-up prefix
    is re-emitted). Re-emitted rounds are still checked against the
    canonical hashes. Wire to {!Fl_fireledger.Cluster.set_on_restart}. *)

val finish :
  ?expect_accused:int list ->
  ?departed:int list ->
  ?excused:int list ->
  t ->
  cluster:Fl_fireledger.Cluster.t ->
  faulty:int list ->
  expect_progress:bool ->
  min_rounds:int ->
  unit
(** End-of-run checks: pairwise definite-prefix agreement and chain
    integrity over non-crashed nodes, and — when [expect_progress] —
    bounded-progress liveness: every node outside [faulty] and
    [departed] (nodes a decided reconfiguration removed — they owe no
    further progress) must have ≥ [min_rounds] definite rounds. Accountability: all collected
    evidence must validate under the cluster registry and accuse only
    [faulty] or [excused] nodes ([excused] covers benign restarts —
    e.g. a rolling restart — whose cold-started incarnation may
    legitimately double-sign without counting against the fault
    budget or being exempt from liveness); with [expect_accused], if a rescinding recovery
    ran and the equivocators really split their audience (the
    ["equivocations"] counter is positive), the accused set must equal
    [expect_accused] exactly. *)

val accused : t -> int list
(** Sorted, deduplicated nodes some collected evidence accuses. *)

val evidence_count : t -> int
(** Distinct evidence objects seen across all watched nodes. *)

val epoch_count : t -> int
(** Successor epochs reported (canonical schedule size, genesis
    excluded). *)

val transfer_count : t -> int
(** Completed state transfers observed cluster-wide. *)

val check_app_state : t -> node:int -> live:string -> replayed:string -> unit
(** End-of-run application oracle: flag an ["app-state"] violation
    when the node's [live] state-machine hash differs from [replayed],
    a from-scratch fold over the node's own definite prefix. *)

val check_no_silent_drop : t -> node:int -> missing:int -> pending:int -> unit
(** End-of-run traffic oracle: of the source's [pending] admitted
    transactions, [missing] could not be located in the target node's
    pool or in-flight proposals — every admitted transaction must end
    finalized, explicitly evicted, or still queued. Flags a
    ["tx-conservation"] violation when [missing > 0]. *)

val violations : t -> violation list
(** In detection order, capped at 100 (see {!total}). *)

val total : t -> int
(** Total violations detected including any beyond the cap. *)

(** Round-robin merge-order consistency for FLO deployments: per
    node, deliveries must cycle through workers 0..ω−1 starting at 0
    with per-worker rounds advancing by 1, and all nodes must deliver
    an identical (worker, round, block-hash) sequence. *)
module Flo_merge : sig
  type oracle = t
  type t

  val create : n:int -> workers:int -> t

  val on_deliver : t -> node:int -> Fl_flo.Node.delivery -> unit
  (** Feed from [Fl_flo.Cluster.create]'s [on_deliver]. *)

  val violations : t -> violation list
end
