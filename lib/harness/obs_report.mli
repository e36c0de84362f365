(** Terminal views over an {!Fl_obs.Obs} sink — the text half of the
    [fl_trace] inspector (the other half being {!Fl_obs.Export}).

    Both views are pure functions of their inputs and render through
    {!Table}, so output is deterministic and diffable. *)

val round_timeline : Fl_obs.Obs.event list -> string
(** A per-round timeline distilled from the span stream: for every
    round seen in ["fireledger"]/["flo"] spans, the cross-node mean of
    each phase (A→C tentative, C→D finality, D→E merge) in ms plus
    the delivery and nil counts. Rounds render in ascending order;
    with more than 40 rounds, evenly spaced rounds are shown and the
    elision is noted in the title. *)

val phase_cdf : Fl_metrics.Recorder.t -> string
(** The Figure-8 phase decomposition as a quantile table: one row per
    {!Fl_obs.Decomp.names} histogram plus [latency_e2e], with
    p50/p90/p99/mean (ms) and sample count. *)
