(** Bounded-exhaustive model checking of tiny FireLedger clusters.

    Where {!Explorer} samples random seed-derived schedules, this
    module enumerates {e every} schedule of a tiny configuration
    (n=3..4, 1–3 rounds) up to a branching-depth cap, CHESS-style:
    each schedule is one full deterministic cluster re-execution
    driven by a decision-trace prefix, and the engine's arbiter hook
    ({!Fl_sim.Engine.set_arbiter}) turns every message-delivery
    frontier into a branch point — which candidate to deliver next,
    or (within a per-schedule budget) to drop. Equivocator payload
    choices branch at the top level via the scenario's audience
    splits.

    Two enumeration modes:

    - {!Naive} branches over the whole frontier — every tagged event
      within the horizon window, regardless of destination;
    - {!Dpor} applies partial-order reduction: deliveries to
      different nodes commute (nodes interact only through messages,
      and a message's send time is fixed by its sender's lane
      history), so only orderings {e within} the earliest candidate's
      lane are branched; cross-lane order is fixed canonically.
      Soundness is witnessed by {!Explorer}-independent tests: the
      reduced enumeration reaches the same set of distinct final
      chain states as the naive one.

    Every schedule runs under the full {!Oracle} battery plus
    mc-specific checks (tentative-prefix agreement for honest runs,
    bounded liveness for drop-free honest runs), and the
    accountability oracle: any rescinding fork must yield evidence
    naming only injected equivocators. *)

type mode = Naive | Dpor

type scenario = {
  n : int;
  f : int;
  rounds : int;  (** stop once every honest node's round counter ≥ this *)
  equivocators : int list;
  splits : (int list * int list) option list;
      (** audience splits to branch over ([None] = the seeded random
          split); one full enumeration per entry *)
  drops : int;  (** arbiter [Drop] budget per schedule *)
  depth : int;
      (** branching-depth cap: decision positions beyond this take the
          canonical choice and spawn no siblings *)
  horizon_us : int;  (** frontier window width (µs) *)
  budget_ms : int;  (** simulated-time cap per schedule *)
  max_schedules : int;  (** enumeration cap — [capped] reports if hit *)
}

val scenario :
  ?f:int ->
  ?equivocators:int list ->
  ?splits:(int list * int list) option list ->
  ?drops:int ->
  ?depth:int ->
  ?horizon_us:int ->
  ?budget_ms:int ->
  ?max_schedules:int ->
  n:int ->
  rounds:int ->
  unit ->
  scenario
(** Defaults: [f = (n-1)/3], no equivocators, the seeded split only,
    [drops = 0], [depth = 8], [horizon_us = 50], [budget_ms = 400],
    [max_schedules = 20_000]. Every schedule runs the cluster with
    seed 0. Raises [Invalid_argument] on a malformed scenario. *)

type stats = {
  mode : mode;
  scenario : scenario;
  interleavings : int;  (** complete schedules executed *)
  decisions : int;  (** arbiter invocations summed over all schedules *)
  max_depth : int;  (** longest decision sequence seen *)
  dropped : int;  (** messages discarded by [Drop] verdicts, summed *)
  reached : int;  (** schedules where every honest node hit [rounds] *)
  truncated : int;  (** schedules stopped by the time/step budget first *)
  capped : bool;  (** [max_schedules] hit — enumeration incomplete *)
  final_states : string list;
      (** distinct end-of-schedule chain fingerprints (per-node block
          hashes for rounds [0..rounds-1]), sorted — the set DPOR
          soundness compares across modes *)
  violations : (int * Oracle.violation) list;
      (** (schedule index, violation), capped at 50 *)
  total_violations : int;
  accused : int list;  (** union over schedules, sorted *)
  evidence_runs : int;  (** schedules that collected ≥1 evidence object *)
}

val enumerate : mode -> scenario -> stats
(** Depth-first stateless exhaustive exploration: run the canonical
    schedule, then for every undercap decision position with more
    than one alternative re-execute with the alternative prefix,
    recursively, until the tree is exhausted (or [max_schedules]
    truncates it). Deterministic: same scenario, same stats. *)

val failed : stats -> bool
(** Any violation anywhere in the explored space. *)
