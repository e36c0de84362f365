(** Experiment settings and single-run drivers.

    A setting describes one data point of one figure: cluster size,
    worker count, workload (β, σ), machine profile, network profile,
    fault schedule and measurement window. [run_flo] (and the baseline
    runners) build a fresh deterministic simulation, run it, and
    distil the recorder into a {!result}. *)

open Fl_sim

type machine = {
  cores : int;
  cost : Fl_crypto.Cost_model.t;
  bandwidth_bps : float;
}

val m5_xlarge : machine
(** 4 vCPU, 10 Gb/s — the paper's default node (§7). *)

val c5_4xlarge : machine
(** 16 vCPU, 10 Gb/s — the paper's §7.6 comparison machines. *)

type net_profile = Single_dc | Geo

type faults = {
  crash_at : (Time.t * int list) option;
      (** crash these node ids at this time *)
  byzantine : int list;  (** equivocators, from the start *)
  loss : (int * float) option;
      (** (victim, probability): drop this fraction of the victim's
          outbound messages — omission-failure injection *)
  partition : (Time.t * int list list * Time.t) option;
      (** (at, groups, heal): split the network into [groups] at time
          [at] (nodes not listed form an implicit extra group) and heal
          it at time [heal] *)
}

val no_faults : faults

type flo_setting = {
  n : int;
  f : int option;  (** default ⌊(n−1)/3⌋ *)
  workers : int;
  batch : int;  (** β *)
  tx_size : int;  (** σ *)
  net : net_profile;
  machine : machine;
  seed : int;
  warmup : Time.t;
  duration : Time.t;
  faults : faults;
  config_tweaks : Fl_fireledger.Config.t -> Fl_fireledger.Config.t;
      (** applied last — ablation switches *)
  obs : Fl_obs.Obs.t option;
      (** span sink threaded through every layer of the cluster
          ([None] = off); the run also emits a ["harness"]
          ["measurement_window"] rollup span into it *)
  persist : Fl_persist.Node.config option;
      (** give every (node, worker) instance a durability layer; [None]
          (the default) keeps the run purely in-memory *)
  on_deliver : (node:int -> Fl_flo.Node.delivery -> unit) option;
      (** per-delivery tap on every node's FLO merge output — how the
          traffic tier's {!Fl_load.Source} learns its transactions
          finalized (default [None]) *)
}

val persist_of_string : string -> Fl_persist.Node.config
(** ["never"], ["group_commit"], ["group_commit:5ms"] or
    ["every_block"], optionally prefixed by a disk profile —
    ["ssd/group_commit"], ["hdd/every_block"]. Raises
    [Invalid_argument] on anything else, a group-commit span that is
    not a positive number of milliseconds included. *)

val flo : n:int -> workers:int -> batch:int -> tx_size:int -> flo_setting
(** A default single-DC fault-free setting (m5.xlarge, 1 s warmup,
    4 s measurement). *)

type result = {
  tps : float;  (** transactions/s, per-node average *)
  bps : float;  (** blocks/s, per-node average *)
  lat_mean_ms : float;  (** end-to-end block latency (A→E) *)
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_trimmed_ms : float;  (** mean after dropping the top 5% (§7.5.2) *)
  rps : float;  (** recoveries/s, per-node average *)
  ev_ab_ms : float;  (** §7.2.2 event-gap means *)
  ev_bc_ms : float;
  ev_cd_ms : float;
  ev_de_ms : float;
  cpu_util : float;
  messages : int;  (** frames delivered, whole run, over every net *)
  recorder : Fl_metrics.Recorder.t;
      (** every count and histogram of the run; counts read whole-run
          ({!Fl_metrics.Recorder.counter}) or over the measurement
          window ({!Fl_metrics.Recorder.windowed_count}) *)
}

type run_stats = {
  rs_host_ns : int;  (** monotonic host wall time spent simulating *)
  rs_sim_ns : int;  (** simulated time advanced *)
  rs_events : int;  (** engine events executed *)
  rs_runs : int;
}

val run_stats : unit -> run_stats
(** Process-wide accumulator over every [run_flo] / [run_hotstuff] /
    [run_pbft] call — read a delta around an experiment to derive its
    sim-rate (simulated-ms per host-ms, events/s). *)

val reset_run_stats : unit -> unit

val sim_rate_line : run_stats -> string option
(** Render a stats delta as ["sim-rate X sim-ms/host-ms, ..."];
    [None] when the delta carries no host time. *)

val run_flo : flo_setting -> result

val build_flo : flo_setting -> Fl_flo.Cluster.t
(** The construction half of [run_flo]: build the cluster (with fault
    schedule installed) without running it — for drivers that need a
    hook between build and run, like [fl_trace prof] enabling the
    self-profiler only around the simulation itself. *)

val run_cluster : flo_setting -> Fl_flo.Cluster.t -> result
(** The other half: start, run to [warmup + duration], distil. *)

val histo_q_ms : Fl_metrics.Recorder.t -> string -> float -> float
(** Quantile of a named recorder histogram in milliseconds (0 when
    the histogram was never written). *)

val latency_cdf : flo_setting -> points:int -> (float * float) list
(** Run and return the end-to-end latency CDF [(ms, fraction)] —
    Figure 8/15 series. *)

type baseline_setting = {
  b_n : int;
  b_f : int;
  b_batch : int;
  b_tx_size : int;
}

val baseline :
  n:int -> f:int -> batch:int -> tx_size:int -> baseline_setting

val run_hotstuff : baseline_setting -> result
val run_pbft : baseline_setting -> result
(** The Figure 16/17 rivals under full load, on the c5.4xlarge profile
    in one data centre (seed 42), measured from 1 s to 5 s. *)
