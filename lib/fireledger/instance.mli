(** One FireLedger instance — the protocol of the paper's Algorithms
    1 (WRB), 2 (main loop) and 3 (recovery) with the §6.1.1
    optimizations, running as a set of fibers on the simulated node.

    Per round, the instance: selects the proposer by rotation with the
    b1–b3 skip rule; WRB-delivers the proposer's header (bodies travel
    out-of-band); votes through OBBC₁, piggybacking its own next
    proposal on the vote when it is the next proposer — so in the
    fault-free synchronous case one block is decided per
    communication step; appends the block tentatively; and marks the
    block of f+2 rounds ago definite. A chain inconsistency yields a
    transferable proof, reliably broadcast, and a recovery that
    atomically agrees on the last f+1 blocks.

    FLO ({!Fl_flo}) runs ω of these per node.

    This module only composes the phase modules, which share the
    instance record of {!State}: {!Wrb} (Algorithm 1), {!Ledger}
    (appends, definiteness and every other chain change), {!Recovery}
    (Algorithm 3), {!Accountability} (equivocation evidence),
    {!Reconfig} (membership epochs) and {!Sync} (catch-up, state
    transfer, handoff). Here live construction, the fibers and the
    per-round step of Algorithm 2. *)

open Fl_sim
open Fl_chain

type behavior =
  | Honest
  | Equivocator
      (** splits the cluster in two random halves and proposes a
          different block to each — the Byzantine behaviour of the
          paper's §7.4.2 evaluation *)

type block_times = {
  a : Time.t;  (** block body available (proposal, event A of §7.2.2) *)
  b : Time.t;  (** header received (event B) *)
  c : Time.t;  (** tentative decision (event C) *)
  d : Time.t;  (** definite decision (event D) *)
}

type output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
      (** fires exactly once per round, in round order *)
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
      (** fires once per distinct evidence object this node collects —
          whether it detected the conflict itself or received the
          evidence by reliable broadcast *)
  on_epoch : Epoch.t -> unit;
      (** a successor epoch was scheduled from a definite block; fires
          with identical epochs in identical order on every correct
          node (it is a pure function of the definite chain prefix) *)
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
      (** this node adopted a state-transfer snapshot covering rounds
          0..[upto], assembled from [chunks] wire chunks after
          [retries] re-requests *)
}

val null_output : output

type t

val create :
  Env.t ->
  config:Config.t ->
  ?behavior:behavior ->
  ?valid:(Block.t -> bool) ->
  ?persist:Fl_persist.Node.t ->
  ?halves:int list * int list ->
  ?epoch:Epoch.t ->
  output:output ->
  unit ->
  t
(** Build the instance state. [valid] is the external validity
    predicate of VPBC (default: accept). [halves] fixes the
    {!Equivocator}'s audience split (default: a seeded random
    half/half shuffle) — the model checker branches over it. [persist]
    attaches a
    durability layer: appends, definiteness watermarks and recovery
    adoptions are WAL-logged, and if the layer holds frozen media from
    a power failure the instance boots from it — chain, signed
    headers, definite watermark and era restored — before its first
    round, charging the media scan plus per-block hashing as a boot
    delay. [epoch] is the genesis membership epoch (default: the whole
    universe [0, n)); a node outside it boots as a joiner — it
    state-transfers a snapshot from a member, catches up over the
    wire, and starts voting at the activation round of the epoch that
    admits it. *)

val start : t -> unit
(** Spawn the instance's fibers (main loop, dissemination and service
    fibers, RB and AB endpoints). *)

val shutdown : t -> unit
(** Synchronous teardown for cold restarts: stops the instance AND its
    consensus components (OBBCs, RB, AB) directly, without relying on
    message delivery — required when the node's inbox is about to be
    replaced by {!Fl_net.Net.reset_inbox}. *)

val store : t -> Store.t
val mempool : t -> Mempool.t

val inflight_client_txs : t -> (Tx.t * int) list
(** Client (mempool-drained) transactions sitting in blocks this
    instance proposed that are not yet definite, with their fees. A
    recovery that rescinds one of those blocks re-queues its batch via
    {!Mempool.readmit}, so admitted transactions are always either
    here, in the pool, finalized, or explicitly evicted. *)

val round : t -> int
val definite_upto : t -> int

val era : t -> int
(** Completed recoveries at this instance — advances exactly once per
    executed recovery (it keys post-recovery OBBC instances). *)

val active_epoch : t -> Epoch.t
(** The epoch governing the current round. *)

val epochs_scheduled : t -> int
(** Successor epochs scheduled from definite blocks so far. *)

val is_member : t -> bool
(** Is this node inside the membership governing its current round? *)

val submit_reconfig : t -> Epoch.change -> unit
(** Admit a reconfiguration transaction into this node's mempool at
    maximal fee priority — it rides the chain like any client tx. *)

val accused : t -> int list
(** Sorted, deduplicated proposers this node holds valid evidence
    against. *)

val tee_output : output -> output -> output
(** Compose two sinks: every event goes to [a] first, then [b]. A test
    hook: the checking tests use it to observe a cluster with an
    oracle without displacing its real output; nothing in the library
    calls it. *)
