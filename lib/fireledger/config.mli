(** FireLedger protocol and workload parameters.

    One record configures a FireLedger instance: the paper's Table 2
    workload knobs (β batch size, σ transaction size), the WRB timeout
    bounds, the ablation switches of the §6.1.1 optimizations (failure
    detector, piggybacking, block/header separation, proposer
    permutation), and the engineering bounds (GC windows, flow
    control). The optimizations' tuning values are constants of the
    modules that use them: the timer's EMA length and slack
    ({!Timer}), the detector's strike threshold ({!Detector}) and the
    per-vote CPU cost ({!Wrb}). *)

open Fl_sim

type t = {
  n : int;  (** cluster size *)
  f : int;  (** resilience; must satisfy 3f < n *)
  batch_size : int;  (** β — transactions per block *)
  tx_size : int;  (** σ — bytes per transaction *)
  initial_timeout : Time.t;  (** WRB timer τ before tuning kicks in *)
  min_timeout : Time.t;
  max_timeout : Time.t;
  fd_enabled : bool;  (** benign failure detector (§6.1.1) *)
  gc_window : int;
      (** rounds of live per-round protocol state kept for laggards *)
  prune_window : int;
      (** rounds of full block bodies retained in the store *)
  max_outstanding : int;
      (** flow control: own undecided proposed blocks allowed in
          flight *)
  piggyback : bool;
      (** attach the next proposal to the OBBC vote (§5.1); off =
          every proposal goes through a separate push step (ablation) *)
  separate_bodies : bool;
      (** disseminate bodies out-of-band, headers through consensus
          (§6.1.1); off = blocks travel whole (ablation) *)
  fill_blocks : bool;
      (** pad every block to β with synthetic transactions — the
          paper's full-load evaluation mode (§7.2) *)
  permute_proposers : bool;
      (** §6.1.1 pseudo-random rotation order against consecutive
          Byzantine proposers *)
  permute_period : int;  (** rounds per permutation epoch *)
  dissemination : dissemination;
      (** how block bodies travel; the consensus path always uses the
          clique *)
  pipeline_depth : int;
      (** how many block bodies a prospective proposer prepares and
          ships ahead of its turn (≥1); §7.2.1 credits deeper body
          pipelines for larger clusters' throughput *)
  mempool_capacity : int;
      (** bound on pending client transactions per worker pool; beyond
          it admission applies fee-priority eviction / backpressure
          (saturation studies shrink this to a few thousand) *)
}

and dissemination =
  | Clique  (** the paper's overlay: sender unicasts to all n−1 peers *)
  | Gossip of int
      (** push gossip with the given fanout; cuts the proposer's NIC
          burst at the price of extra hops — the §7.2 trade-off
          ("other methods (e.g., gossip) may improve the throughput
          but not the latency") *)

val default : n:int -> t
(** Paper-flavoured defaults: f = ⌊(n−1)/3⌋, β = 1000, σ = 512 B,
    50 ms initial timeout, all optimizations on. *)

val validate : t -> unit
(** Raise [Invalid_argument] on inconsistent parameters. *)
