(* Command-line front end: list and run the paper's experiments, or a
   single custom FLO configuration. *)

open Cmdliner

let mode_term =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run the full paper-scale sweep.")
  in
  Term.(
    const (fun full -> if full then Fl_harness.Experiments.Full
                       else Fl_harness.Experiments.Quick)
    $ full)

let list_cmd =
  let run () =
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-10s %s\n" id desc)
      Fl_harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible tables and figures.")
    Term.(const run $ const ())

let run_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id (see $(b,list)), or 'all'.")
  in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Shard experiment sweeps across $(docv) domains (default 1, \
             or \\$FL_JOBS). Tables are filled from results merged in \
             sweep order, so the output is byte-identical for any value.")
  in
  let run mode jobs id =
    let jobs = Fl_sim.Par.resolve_jobs ?cli:jobs () in
    if jobs > 1 then Fl_sim.Par.ensure_available ();
    if String.equal id "all" then begin
      Fl_harness.Experiments.run_all ~jobs mode;
      `Ok ()
    end
    else if Fl_harness.Experiments.run_by_id ~jobs id mode then `Ok ()
    else `Error (false, Printf.sprintf "unknown experiment %S" id)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Reproduce one table/figure (or 'all').")
    Term.(ret (const run $ mode_term $ jobs $ id))

let custom_cmd =
  let open Arg in
  let n = value & opt int 4 & info [ "n" ] ~doc:"Cluster size." in
  let w = value & opt int 4 & info [ "w"; "workers" ] ~doc:"FLO workers." in
  let batch = value & opt int 1000 & info [ "b"; "batch" ] ~doc:"Block size (txs)." in
  let sigma = value & opt int 512 & info [ "s"; "tx-size" ] ~doc:"Tx size (bytes)." in
  let geo = value & flag & info [ "geo" ] ~doc:"Geo-distributed latency matrix." in
  let seconds = value & opt float 4.0 & info [ "t"; "seconds" ] ~doc:"Measured seconds (simulated)." in
  let seed = value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed." in
  let byzantine = value & opt int 0 & info [ "byzantine" ] ~doc:"Number of equivocating nodes." in
  let crash = value & opt int 0 & info [ "crash" ] ~doc:"Number of nodes crashed mid-run." in
  let run n w batch sigma geo seconds seed byzantine crash =
    let open Fl_harness.Settings in
    let faults =
      { no_faults with
        byzantine = List.init byzantine (fun i -> (3 * i) + 1);
        crash_at =
          (if crash > 0 then
             Some (Fl_sim.Time.ms 500, List.init crash (fun i -> (2 * i) + 1))
           else None) }
    in
    let s =
      { (flo ~n ~workers:w ~batch ~tx_size:sigma) with
        net = (if geo then Geo else Single_dc);
        duration = Fl_sim.Time.of_float_s seconds;
        seed;
        faults }
    in
    let r = run_flo s in
    Printf.printf "tps        %.0f\n" r.tps;
    Printf.printf "bps        %.1f\n" r.bps;
    Printf.printf "latency    mean %.1f ms  p50 %.1f  p90 %.1f  p99 %.1f\n"
      r.lat_mean_ms r.lat_p50_ms r.lat_p90_ms r.lat_p99_ms;
    Printf.printf "recoveries %.2f /s\n" r.rps;
    Printf.printf "cpu        %.0f%%\n" (100.0 *. r.cpu_util);
    Printf.printf "fast/slow  %d/%d OBBC decisions\n"
      (Fl_metrics.Recorder.counter r.recorder "obbc_fast_decisions")
      (Fl_metrics.Recorder.counter r.recorder "obbc_slow_paths")
  in
  Cmd.v
    (Cmd.info "custom" ~doc:"Run a single custom FLO configuration.")
    Term.(
      const run $ n $ w $ batch $ sigma $ geo $ seconds $ seed $ byzantine
      $ crash)

let export_cmd =
  let open Arg in
  let n = value & opt int 4 & info [ "n" ] ~doc:"Cluster size." in
  let seconds = value & opt float 1.0 & info [ "t"; "seconds" ] ~doc:"Simulated seconds." in
  let path =
    required & pos 0 (some string) None & info [] ~docv:"PATH"
      ~doc:"Output file for node 0's ledger."
  in
  let run n seconds path =
    let config =
      { (Fl_fireledger.Config.default ~n) with
        Fl_fireledger.Config.batch_size = 50;
        tx_size = 128 }
    in
    let c = Fl_fireledger.Cluster.create ~config () in
    Fl_fireledger.Cluster.start c;
    Fl_fireledger.Cluster.run ~until:(Fl_sim.Time.of_float_s seconds) c;
    let store =
      Fl_fireledger.Instance.store c.Fl_fireledger.Cluster.instances.(0)
    in
    Fl_chain.Serial.save store ~path;
    match Fl_chain.Serial.load ~path with
    | Ok store' ->
        Printf.printf "wrote %d blocks (%d bytes) to %s; reload verified: %b\n"
          (Fl_chain.Store.length store)
          (Fl_wire.Sparse.length (Fl_chain.Serial.encode_chain store))
          path
          (String.equal
             (Fl_chain.Store.last_hash store)
             (Fl_chain.Store.last_hash store')
          && Fl_chain.Store.check_integrity store')
    | Error e -> Printf.eprintf "reload failed: %s\n" e
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run a cluster, persist node 0's chain to disk, verify reload.")
    Term.(const run $ n $ seconds $ path)

let () =
  let info =
    Cmd.info "fireledger_cli" ~version:"1.0.0"
      ~doc:"FireLedger reproduction: run the paper's experiments."
  in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; run_cmd; custom_cmd; export_cmd ]))
