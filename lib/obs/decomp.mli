(** Per-block latency decomposition.

    The paper's event chain for one block (§7.2.2, Figure 9) is

    {v  A body arrival → B header delivery → C tentative accept
        → D definite (f+1 rounds later) → E FLO merge emission  v}

    and the end-to-end latency the Figure 8 CDFs plot is E − A. This
    module splits that latency into the paper's cost centres:

    - {b dissemination} (A→B): the block body travelling ahead of its
      header — the bandwidth-bound phase;
    - {b quorum wait} (B→C): the one-bit OBBC vote step, from header
      in hand to weak delivery;
    - {b finality delay} (C→D): the f+1-round tentative window;
    - {b merge wait} (D→E): queueing in the FLO round-robin merge
      behind slower workers.

    Components are raw differences — never clamped — so they
    telescope exactly: their sum is always E − A, the recorded
    end-to-end latency (dissemination may be negative when a header
    overtakes its body; the sum invariant is what the tests pin). *)

open Fl_sim

type components = {
  dissemination : Time.t;
  quorum_wait : Time.t;
  finality_delay : Time.t;
  merge_wait : Time.t;
}

val of_times :
  a:Time.t -> b:Time.t -> c:Time.t -> d:Time.t -> e:Time.t -> components

val total : components -> Time.t
(** Exactly [e - a] of the times the components were built from. *)

val names : string list
(** Histogram names written by {!record}, in phase order:
    ["phase_dissemination"; "phase_quorum_wait"; "phase_finality_delay";
    "phase_merge_wait"]. *)

val record : Fl_metrics.Recorder.t -> components -> unit
(** Observe each component into its phase histogram (see {!names}) —
    the series behind the phase-decomposed Figure 8 CDFs. *)

(** {2 Client-observed decomposition}

    The traffic tier measures latency from the client's side: submit
    (the transaction enters a node's admission queue, possibly after
    retries) → A (drained into a block body) → final (that block is
    definite and merged). Two components:

    - {b admission wait} (submit→A): queueing in the fee-priority
      mempool — the congestion signal of the saturation studies;
    - {b consensus} (A→final): the block pipeline itself (≈ E − A of
      the block decomposition above).

    Raw differences again, so per transaction
    [admission_wait + consensus = final − submit] exactly, and the
    histogram sums telescope: sum(phase_admission_wait) +
    sum(client_consensus) = sum(latency_client_e2e). *)

type client_components = {
  admission_wait : Time.t;
  consensus : Time.t;
}

val of_client_times :
  submit:Time.t -> a:Time.t -> final:Time.t -> client_components

val client_total : client_components -> Time.t
(** Exactly [final - submit]. *)

val record_client : Fl_metrics.Recorder.t -> client_components -> unit
(** Observe both components and their telescoped end-to-end total, as
    the histograms ["phase_admission_wait"], ["client_consensus"] and
    ["latency_client_e2e"]. *)
