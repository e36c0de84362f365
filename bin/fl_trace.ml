(* Full-stack run inspector.

   Capture a run with the structured-span sink threaded through every
   layer, write the three export formats, and print terminal views:

     fl_trace run --n 4 --workers 2 --seconds 2 --out trace-out
     fl_trace experiment fig8 --out trace-out
     fl_trace plan 'n=4,f=1,seed=7;eq=1' --budget-ms 2000

   Output files (under --out, default ./trace-out):
     trace.json    Chrome trace-event JSON — load in ui.perfetto.dev
     events.jsonl  one event per line, raw nanosecond times (jq-able)
     metrics.prom  Prometheus text snapshot of every recorder series

   --nodes / --cats / --from-ms / --to-ms filter the exported events
   (cluster-wide events always survive a node filter). *)

open Cmdliner

let split_commas s =
  String.split_on_char ',' s |> List.filter (fun x -> x <> "")

(* ---------- common options ---------- *)

let out_term =
  Arg.(
    value
    & opt string "trace-out"
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory (created).")

let nodes_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "nodes" ] ~docv:"IDS"
        ~doc:"Keep only these node ids (comma-separated).")

let cats_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "cats" ] ~docv:"CATS"
        ~doc:
          "Keep only these categories (comma-separated; sim, net, \
           consensus, fireledger, flo, harness).")

let from_ms_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "from-ms" ] ~docv:"MS" ~doc:"Drop events before this time.")

let to_ms_term =
  Arg.(
    value
    & opt (some float) None
    & info [ "to-ms" ] ~docv:"MS" ~doc:"Drop events at/after this time.")

let capacity_term =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "capacity" ] ~docv:"N"
        ~doc:"Sink ring-buffer capacity (oldest events evicted).")

let no_timeline_term =
  Arg.(
    value & flag
    & info [ "no-timeline" ] ~doc:"Skip the terminal per-round timeline.")

type filt = {
  f_nodes : int list option;
  f_cats : string list option;
  f_from : Fl_sim.Time.t option;
  f_to : Fl_sim.Time.t option;
}

let filt_term =
  let make nodes cats from_ms to_ms =
    { f_nodes = Option.map (fun s -> List.map int_of_string (split_commas s)) nodes;
      f_cats = Option.map split_commas cats;
      f_from = Option.map (fun ms -> int_of_float (ms *. 1e6)) from_ms;
      f_to = Option.map (fun ms -> int_of_float (ms *. 1e6)) to_ms }
  in
  Term.(const make $ nodes_term $ cats_term $ from_ms_term $ to_ms_term)

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Drain the sink, apply filters, write the three formats, print the
   terminal views. *)
let finish ~out ~filt ~no_timeline ~sink ~recorder =
  let open Fl_obs in
  mkdir_p out;
  let events =
    Export.filter ?nodes:filt.f_nodes ?cats:filt.f_cats ?t_from:filt.f_from
      ?t_to:filt.f_to (Obs.events sink)
  in
  let path name = Filename.concat out name in
  Export.write_file ~path:(path "trace.json")
    (Export.chrome_json ~dropped:(Obs.dropped sink) events);
  Export.write_file ~path:(path "events.jsonl") (Export.jsonl events);
  Export.write_file ~path:(path "metrics.prom")
    (Export.prometheus ?recorder ~obs:sink ());
  Printf.printf "captured %d events (%d dropped); %d after filters\n"
    (Obs.count sink) (Obs.dropped sink) (List.length events);
  Printf.printf "wrote %s %s %s\n" (path "trace.json") (path "events.jsonl")
    (path "metrics.prom");
  if not no_timeline then begin
    print_string (Fl_harness.Obs_report.round_timeline events);
    match recorder with
    | Some r -> print_string (Fl_harness.Obs_report.phase_cdf r)
    | None -> ()
  end

(* ---------- fl_trace run ---------- *)

let run_cmd =
  let open Arg in
  let n = value & opt int 4 & info [ "n" ] ~doc:"Cluster size." in
  let w = value & opt int 2 & info [ "w"; "workers" ] ~doc:"FLO workers." in
  let batch = value & opt int 100 & info [ "b"; "batch" ] ~doc:"Block size (txs)." in
  let sigma = value & opt int 128 & info [ "s"; "tx-size" ] ~doc:"Tx size (bytes)." in
  let seconds = value & opt float 1.0 & info [ "t"; "seconds" ] ~doc:"Measured seconds (simulated)." in
  let seed = value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed." in
  let geo = value & flag & info [ "geo" ] ~doc:"Geo-distributed latency matrix." in
  let run n w batch sigma seconds seed geo capacity out filt no_timeline =
    let sink = Fl_obs.Obs.create ~capacity () in
    let open Fl_harness.Settings in
    let s =
      { (flo ~n ~workers:w ~batch ~tx_size:sigma) with
        net = (if geo then Geo else Single_dc);
        duration = Fl_sim.Time.of_float_s seconds;
        seed;
        obs = Some sink }
    in
    let r = run_flo s in
    Printf.printf "tps %.0f  lat p50 %.2f ms  p99 %.2f ms\n" r.tps
      r.lat_p50_ms r.lat_p99_ms;
    finish ~out ~filt ~no_timeline ~sink ~recorder:(Some r.recorder)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Trace a single FLO configuration.")
    Term.(
      const run $ n $ w $ batch $ sigma $ seconds $ seed $ geo
      $ capacity_term $ out_term $ filt_term $ no_timeline_term)

(* ---------- fl_trace experiment ---------- *)

let experiment_cmd =
  let open Arg in
  let id =
    required
    & pos 0 (some string) None
    & info [] ~docv:"ID"
        ~doc:"Experiment id (see $(b,fireledger_cli list))."
  in
  let full = value & flag & info [ "full" ] ~doc:"Full paper-scale sweep." in
  let run id full capacity out filt no_timeline =
    let sink = Fl_obs.Obs.create ~capacity () in
    let mode =
      if full then Fl_harness.Experiments.Full else Fl_harness.Experiments.Quick
    in
    let known = Fl_harness.Experiments.run_by_id ~obs:sink id mode in
    if not known then
      `Error (false, Printf.sprintf "unknown experiment %S" id)
    else begin
      finish ~out ~filt ~no_timeline ~sink ~recorder:None;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Trace a named experiment (its FLO runs feed the sink).")
    Term.(
      ret
        (const run $ id $ full $ capacity_term $ out_term $ filt_term
        $ no_timeline_term))

(* ---------- fl_trace plan ---------- *)

let plan_cmd =
  let open Arg in
  let plan_str =
    required
    & pos 0 (some string) None
    & info [] ~docv:"PLAN"
        ~doc:"Fault plan, e.g. 'n=4,f=1,seed=7;eq=1' (fl_explore syntax)."
  in
  let budget_ms =
    value & opt int 2000 & info [ "budget-ms" ] ~doc:"Simulated run budget."
  in
  let run plan_str budget_ms capacity out filt no_timeline =
    match Fl_check.Plan.of_string plan_str with
    | Error e -> `Error (false, Printf.sprintf "bad plan: %s" e)
    | Ok plan ->
        let sink = Fl_obs.Obs.create ~capacity () in
        let report = Fl_check.Explorer.run_plan ~obs:sink ~budget_ms plan in
        Printf.printf
          "plan %s\nmin-definite=%d max-round=%d recoveries=%d violations=%d\n"
          (Fl_check.Plan.to_string report.Fl_check.Explorer.plan)
          report.Fl_check.Explorer.min_definite
          report.Fl_check.Explorer.max_round
          report.Fl_check.Explorer.recoveries
          report.Fl_check.Explorer.total_violations;
        finish ~out ~filt ~no_timeline ~sink ~recorder:None;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Trace an explorer fault plan (adversarial schedule).")
    Term.(
      ret
        (const run $ plan_str $ budget_ms $ capacity_term $ out_term
        $ filt_term $ no_timeline_term))

(* ---------- fl_trace prof ---------- *)

let prof_cmd =
  let open Arg in
  let n = value & opt int 4 & info [ "n" ] ~doc:"Cluster size." in
  let w = value & opt int 2 & info [ "w"; "workers" ] ~doc:"FLO workers." in
  let batch = value & opt int 100 & info [ "b"; "batch" ] ~doc:"Block size (txs)." in
  let sigma = value & opt int 128 & info [ "s"; "tx-size" ] ~doc:"Tx size (bytes)." in
  let seconds = value & opt float 1.0 & info [ "t"; "seconds" ] ~doc:"Measured seconds (simulated)." in
  let seed = value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed." in
  let geo = value & flag & info [ "geo" ] ~doc:"Geo-distributed latency matrix." in
  let persist =
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"POLICY"
        ~doc:
          "Give every node a durability layer (e.g. group_commit, \
           ssd/every_block) so WAL framing shows up in the profile."
  in
  let byzantine =
    value
    & opt (some string) None
    & info [ "byzantine" ] ~docv:"IDS"
        ~doc:
          "Make these node ids (comma-separated) equivocators from the \
           start, so the OBBC slow path, recovery versions and evidence \
           show up in the profile."
  in
  let run n w batch sigma seconds seed geo persist byzantine =
    let open Fl_harness.Settings in
    let s =
      { (flo ~n ~workers:w ~batch ~tx_size:sigma) with
        net = (if geo then Geo else Single_dc);
        duration = Fl_sim.Time.of_float_s seconds;
        seed;
        persist = Option.map persist_of_string persist;
        faults =
          { no_faults with
            byzantine =
              (match byzantine with
              | None -> []
              | Some ids -> List.map int_of_string (split_commas ids)) } }
    in
    (* Build outside the profiled window: construction cost is not
       simulation cost. *)
    let cluster = build_flo s in
    reset_run_stats ();
    Fl_prof.Prof.enable ();
    let t0 = Fl_prof.Clock.now_ns_int () in
    let r = run_cluster s cluster in
    let wall_ns = Fl_prof.Clock.now_ns_int () - t0 in
    Fl_prof.Prof.disable ();
    Printf.printf "tps %.0f  lat p50 %.2f ms  p99 %.2f ms\n\n" r.tps
      r.lat_p50_ms r.lat_p99_ms;
    let stats =
      List.sort
        (fun a b -> compare b.Fl_prof.Prof.p_self_ns a.Fl_prof.Prof.p_self_ns)
        (Fl_prof.Prof.stats ())
    in
    let wall_ms = float_of_int wall_ns /. 1e6 in
    Printf.printf "host-time attribution (%.1f ms wall inside the run):\n"
      wall_ms;
    Printf.printf "  %-14s %12s %8s %12s\n" "subsystem" "self-ms" "%" "calls";
    List.iter
      (fun st ->
        let self_ms = float_of_int st.Fl_prof.Prof.p_self_ns /. 1e6 in
        Printf.printf "  %-14s %12.2f %7.1f%% %12d\n" st.Fl_prof.Prof.p_name
          self_ms
          (100.0 *. self_ms /. wall_ms)
          st.Fl_prof.Prof.p_calls)
      stats;
    let attributed = Fl_prof.Prof.attributed_ns () in
    Printf.printf "  %-14s %12.2f %7.1f%%\n" "(attributed)"
      (float_of_int attributed /. 1e6)
      (100.0 *. float_of_int attributed /. float_of_int wall_ns);
    (match sim_rate_line (run_stats ()) with
    | Some line -> Printf.printf "\n%s\n" line
    | None -> ())
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Self-profile a FLO run: attribute host wall time to simulator \
          subsystems (engine dispatch, event-queue pops, codec, SHA-256, \
          WAL, obs).")
    Term.(
      const run $ n $ w $ batch $ sigma $ seconds $ seed $ geo $ persist
      $ byzantine)

let () =
  let info =
    Cmd.info "fl_trace" ~version:"1.0.0"
      ~doc:
        "Capture a FireLedger run as Perfetto/JSONL/Prometheus artifacts \
         with per-round terminal timelines."
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; experiment_cmd; plan_cmd; prof_cmd ]))
