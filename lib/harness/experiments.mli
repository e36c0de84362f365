(** One driver per table/figure of the paper's evaluation (§7).

    Each driver declares the paper's parameter grid (Table 2) as a list
    of deterministic simulation runs, gets their results back from one
    sweep ({!Fl_sim.Par.map}), and returns the same rows or series the
    paper plots as tables; [run_by_id] and [run_all] print them.
    [Quick] shrinks sweeps and durations for CI-style runs; [Full]
    covers the complete grid. *)

type mode = Quick | Full

type run = { mode : mode; jobs : int; obs : Fl_obs.Obs.t option }
(** What a driver runs with: the sweep size, the number of domains its
    runs are sharded over ({!Fl_sim.Par.map}; results merge in sweep
    order and [jobs = 1] runs them in that order, so tables are
    identical for any [jobs]), and the sink every FLO run of the
    driver feeds ([None] = off). *)

val all : (string * string * (run -> Table.t list)) list
(** [(id, description, driver)] for every reproduced artifact, in
    paper order: table1, fig5..fig17, plus the DESIGN.md ablations and
    the durability and traffic studies. A driver returns its tables
    without printing them. *)

val run_by_id : ?jobs:int -> ?obs:Fl_obs.Obs.t -> string -> mode -> bool
(** Run one experiment with [jobs] (default 1) and [obs] (default
    none), then print its tables and a wall-time footer; [false] if
    the id is unknown. A sink is not domain-safe, so both [obs] and
    [jobs > 1] raise [Invalid_argument] before anything runs. *)

val run_all : ?jobs:int -> ?obs:Fl_obs.Obs.t -> mode -> unit
(** Every experiment in [all] order; [jobs] and [obs] as for
    [run_by_id]. *)

val run_traffic :
  run ->
  rate_per_s:float ->
  pool_cap:int ->
  read_ratio:float ->
  consistency:Fl_load.Source.consistency ->
  ?surges:Fl_load.Arrivals.surge list ->
  ?seed:int ->
  n:int ->
  workers:int ->
  batch:int ->
  tx_size:int ->
  unit ->
  Settings.result * Fl_load.Source.stats * Settings.flo_setting
(** One traffic-tier run behind the saturation sweep: an
    {!Fl_load.Source} open-loop client source submits to node 0's
    fee-priority pool (capacity [pool_cap]) while the cluster runs in
    client-drain mode ([fill_blocks = false]); deliveries and
    evictions feed back into the source, so its stats and the
    recorder's [phase_admission_wait] / [client_consensus] /
    [latency_client_e2e] histograms describe the client-observed
    outcome. Exposed for the saturation/telescoping tests. *)
