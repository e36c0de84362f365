(** The schedule explorer: run many seed-derived fault plans under
    the invariant oracles, replay failures, and shrink them to
    minimal reproducers.

    Everything is deterministic: a [report] is a pure function of
    [(plan, budget_ms, inject_fork)], so two invocations of
    {!explore} with the same arguments produce identical summaries —
    the property the replay workflow rests on. *)

type report = {
  plan : Plan.t;
  budget_ms : int;
  violations : Oracle.violation list;
  total_violations : int;
  min_definite : int;  (** over correct (non-faulty) nodes *)
  max_round : int;
  recoveries : int;  (** summed over nodes *)
  corrupted : int;  (** wire frames mutated by byte-fault windows *)
  decode_errors : int;
      (** frames the receivers' codec rejected (CRC / malformed) —
          with [Corrupt] faults this must be > 0 when [corrupted] is,
          or the corruption never reached a decoder *)
  accused : int list;
      (** nodes some collected equivocation evidence accuses (sorted) *)
  evidence_count : int;  (** distinct evidence objects collected *)
  epochs : int;
      (** successor epochs the canonical membership schedule reached *)
  transfers : int;  (** completed state transfers, cluster-wide *)
  events : int;  (** engine events executed *)
  truncated : bool;  (** engine step budget exhausted *)
  traffic : Fl_load.Source.stats option;
      (** the open-loop source's conservation ledger — [Some] exactly
          when the plan contains [Surge] faults *)
}

val failed : report -> bool

val run_plan :
  ?inject_fork:bool ->
  ?obs:Fl_obs.Obs.t ->
  ?persist:Fl_persist.Node.config ->
  budget_ms:int ->
  Plan.t ->
  report
(** Build a cluster for the plan (cluster seed = [plan.seed]), attach
    the oracles, schedule the faults, run for [budget_ms] of simulated
    time (with an engine step budget), then run the end-of-run
    oracles. [inject_fork] deliberately feeds the oracle a forked
    block for one node from definite round 3 on — a planted safety
    bug that must be caught (self-test of the oracle layer) — {e and}
    forces a real equivocator into the plan (when the process-fault
    budget allows), asserting via {!Oracle.finish}'s [expect_accused]
    that any rescinding fork yields evidence naming the Byzantine set
    exactly. [obs]
    installs a span sink on the cluster (observe-only; the report is
    unchanged) — how [fl_trace plan] captures adversarial runs.
    [persist] puts a durability layer (plus a per-node KV state
    machine checked by the end-of-run app-state oracle) under every
    node; plans containing disk faults get one implicitly
    ([Fl_persist.Node.default_config]). Plans containing [Surge]
    faults attach an {!Fl_load.Source} open-loop client source to one
    correct node (small pool, fee-priority admission); at end of run
    {!Oracle.check_no_silent_drop} asserts every admitted transaction
    is finalized, explicitly evicted, or still queued/in-flight on
    some live node (a leaving target hands its pool over first); the
    check is suspended for plans that rolling-restart the cluster (a
    cold restart loses the volatile pool). Reconfiguration plans get
    persistence implicitly and a genesis membership excluding the
    joiners, which boot as observers and state-transfer in. *)

val run_seed :
  ?inject_fork:bool ->
  ?with_disk_faults:bool ->
  ?with_corrupt_faults:bool ->
  ?with_surge_faults:bool ->
  ?with_reconfig_faults:bool ->
  ?persist:Fl_persist.Node.config ->
  ?n:int ->
  budget_ms:int ->
  int ->
  report
(** Generate the seed's plan and run it. *)

type summary = {
  seeds : int;
  base_seed : int;
  reports : report list;  (** in seed order *)
  failures : report list;
  total_events : int;
}

val explore :
  ?inject_fork:bool -> ?with_disk_faults:bool -> ?with_corrupt_faults:bool ->
  ?with_surge_faults:bool -> ?with_reconfig_faults:bool ->
  ?persist:Fl_persist.Node.config -> ?n:int -> ?jobs:int ->
  seeds:int -> base_seed:int -> budget_ms:int -> unit -> summary
(** Run seeds [base_seed .. base_seed + seeds - 1]. [jobs] (default 1)
    shards the seeds across that many domains ({!Fl_sim.Par.map});
    every seed is a self-contained simulation, so the summary — reports,
    failures, {!fingerprint} — is byte-identical for any [jobs]. *)

val fingerprint : summary -> string
(** Order-sensitive digest of every report (violations, progress,
    event counts) — equal fingerprints mean the exploration replayed
    identically. *)

val shrink : ?inject_fork:bool -> budget_ms:int -> Plan.t -> Plan.t
(** Greedy minimisation of a failing plan: repeatedly try dropping a
    fault, shortening a fault window (halving durations, removing
    restarts, pulling heal times in), or reducing n (7 → 4, when the
    faults still fit), keeping any edit that still fails. Deterministic;
    at most 64 replays. Returns the plan unchanged if it does not fail
    in the first place. *)

val cli_of_plan : budget_ms:int -> Plan.t -> string
(** Copy-pasteable reproducer invocation for [bin/fl_explore]. *)
