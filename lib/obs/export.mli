(** Exporters for {!Obs} sinks.

    Three formats:

    - {b Chrome trace-event JSON} ({!chrome_json}): loadable in
      Perfetto ([ui.perfetto.dev]) or [chrome://tracing]. One process
      per node (pid = node + 1, pid 0 = cluster-wide), one thread per
      worker (tid = worker + 1, tid 0 = main), with metadata records
      naming each track. Spans are ["ph":"X"] complete events,
      instants ["ph":"i"], gauges ["ph":"C"] counter tracks.
      Timestamps are microseconds (the format's unit); durations are
      clamped at 0 for display.
    - {b JSONL} ({!jsonl}): one structured object per line with raw
      nanosecond times — for jq / scripted analysis.
    - {b Prometheus text} ({!prometheus}): a point-in-time snapshot of
      every {!Fl_metrics.Recorder} counter (whole-run and in-window)
      and histogram (as a quantile summary), plus the last value of every
      {!Obs} gauge.

    All output is deterministic: events render in emission order and
    hash-table-backed listings are sorted. *)

val filter :
  ?nodes:int list ->
  ?cats:string list ->
  ?t_from:Fl_sim.Time.t ->
  ?t_to:Fl_sim.Time.t ->
  Obs.event list ->
  Obs.event list
(** Keep events matching every given criterion. [nodes] matches the
    event's node attribution (cluster-wide [-1] events are always
    kept, so context like partitions survives a node filter); [cats]
    matches the category; the time range is inclusive of [t_from],
    exclusive of [t_to], against {!Obs.time_of}. *)

val chrome_json : ?dropped:int -> Obs.event list -> string
(** [dropped] (e.g. {!Obs.dropped}) is recorded as run metadata. *)

val jsonl : Obs.event list -> string

val prometheus :
  ?recorder:Fl_metrics.Recorder.t -> ?obs:Obs.t -> unit -> string
(** Metric names are prefixed ["fl_"] and sanitised to the Prometheus
    grammar. A counter renders as [fl_<name>] (its whole-run count)
    and, once the recorder has a window, [fl_<name>_total] (its
    in-window count). Histograms render as summaries with
    [quantile="0.5"|"0.9"|"0.99"] labels plus [_sum]/[_count]. *)

val write_file : path:string -> string -> unit
(** Write [contents] to [path] (truncating). *)
