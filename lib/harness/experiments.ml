open Fl_sim

type mode = Quick | Full

type run = { mode : mode; jobs : int; obs : Fl_obs.Obs.t option }

let warmup = Time.s 1
let duration = function Quick -> Time.s 3 | Full -> Time.s 10

let omega_sweep = function Quick -> [ 1; 4; 10 ] | Full -> [ 1; 2; 4; 6; 8; 10 ]
let sizes = [ 512; 1024; 4096 ]
let batches = [ 10; 100; 1000 ]
let clusters = [ 4; 7; 10 ]

let base ex ~n ~workers ~batch ~tx_size =
  { (Settings.flo ~n ~workers ~batch ~tx_size) with
    Settings.warmup;
    duration = duration ex.mode;
    obs = ex.obs }

let ktps r = r.Settings.tps /. 1000.0

(* ---------- Table 1: per-mode protocol costs ---------- *)

let table1 ex =
  let n = 4 in
  let run faults tweaks =
    Settings.run_flo
      { (base ex ~n ~workers:1 ~batch:100 ~tx_size:512) with
        Settings.faults;
        config_tweaks = tweaks }
  in
  let fault_free = run Settings.no_faults Fun.id in
  let omission =
    run { Settings.no_faults with Settings.loss = Some (1, 0.6) } Fun.id
  in
  let byz =
    run { Settings.no_faults with Settings.byzantine = [ 2 ] } Fun.id
  in
  let t =
    Table.create ~title:"Table 1: FireLedger cost per decided block"
      ~columns:
        [ "metric"; "fault-free"; "timing/omission"; "byzantine" ]
  in
  (* "blocks_delivered" marks fire at every node, so the distinct
     block count is the windowed count divided by n. *)
  let blocks r =
    max 1
      (Fl_metrics.Recorder.windowed_count r.Settings.recorder
         "blocks_delivered"
      / n)
  in
  let per_block r c = float_of_int c /. float_of_int (blocks r) in
  let row name f =
    Table.add_row t
      [ name;
        Table.cell_f ~dec:2 (f fault_free);
        Table.cell_f ~dec:2 (f omission);
        Table.cell_f ~dec:2 (f byz) ]
  in
  row "messages / block / node" (fun r ->
      per_block r r.Settings.messages /. float_of_int n);
  row "signatures / block" (fun r -> per_block r r.Settings.signatures);
  row "verifications / block" (fun r ->
      per_block r
        (Fl_metrics.Recorder.counter r.Settings.recorder "verifications"));
  row "OBBC slow paths / block" (fun r ->
      per_block r r.Settings.slow_paths);
  row "recoveries / s" (fun r -> r.Settings.rps);
  row "finality latency (rounds)" (fun _ -> float_of_int (((n - 1) / 3) + 2));
  Table.print t

(* ---------- Figure 5: signature generation rate ---------- *)

let fig5 _ex =
  let t =
    Table.create
      ~title:
        "Figure 5: signatures/s on one VM (cost model; see bench for the \
         measured-hardware calibration)"
      ~columns:[ "beta"; "sigma"; "w=1"; "w=2"; "w=4"; "w=8" ]
  in
  let cost = Settings.m5_xlarge.Settings.cost in
  List.iter
    (fun beta ->
      List.iter
        (fun sigma ->
          let sps w =
            (* ω worker threads on 4 vCPUs: parallelism caps at the
               core count *)
            Fl_crypto.Cost_model.signatures_per_second cost
              ~payload_bytes:(beta * sigma)
              ~cores:(min w Settings.m5_xlarge.Settings.cores)
          in
          Table.add_row t
            [ Table.cell_i beta;
              Table.cell_i sigma;
              Table.cell_f (sps 1);
              Table.cell_f (sps 2);
              Table.cell_f (sps 4);
              Table.cell_f (sps 8) ])
        sizes)
    batches;
  Table.print t

(* ---------- Figure 6: single-DC blocks/s ---------- *)

let fig6 ex =
  let t =
    Table.create ~title:"Figure 6: FLO blocks/s, single DC (header-only load)"
      ~columns:[ "workers"; "n=4"; "n=7"; "n=10" ]
  in
  (* Build the whole grid up front and run it through the parallel
     sweep; rows are filled from the results array in sweep order, so
     the table is identical for any job count. *)
  let ws = omega_sweep ex.mode in
  let ns = [ 4; 7; 10 ] in
  let settings =
    Array.of_list
      (List.concat_map
         (fun w ->
           List.map (fun n -> base ex ~n ~workers:w ~batch:1 ~tx_size:1) ns)
         ws)
  in
  let results =
    Par.map ~jobs:ex.jobs (Array.length settings) (fun i ->
        Settings.run_flo settings.(i))
  in
  List.iteri
    (fun i w ->
      let cell j = Table.cell_f results.((i * 3) + j).Settings.bps in
      Table.add_row t [ Table.cell_i w; cell 0; cell 1; cell 2 ])
    ws;
  Table.print t

(* ---------- Figure 7: single-DC tps grid ---------- *)

let tps_grid ex ~title ~net =
  let sigmas = [ 512; 1024; 4096 ] in
  List.iter
    (fun n ->
      List.iter
        (fun beta ->
          let t =
            Table.create
              ~title:(Printf.sprintf "%s  n=%d beta=%d" title n beta)
              ~columns:[ "workers"; "sigma=512"; "sigma=1K"; "sigma=4K" ]
          in
          (* One parallel sweep per table; rows filled from the results
             array in sweep order (identical for any job count). *)
          let ws = omega_sweep ex.mode in
          let settings =
            Array.of_list
              (List.concat_map
                 (fun w ->
                   List.map
                     (fun sigma ->
                       { (base ex ~n ~workers:w ~batch:beta
                            ~tx_size:sigma)
                         with Settings.net })
                     sigmas)
                 ws)
          in
          let results =
            Par.map ~jobs:ex.jobs (Array.length settings) (fun i ->
                Settings.run_flo settings.(i))
          in
          List.iteri
            (fun i w ->
              let cell j = Table.cell_f (ktps results.((i * 3) + j)) in
              Table.add_row t
                [ Table.cell_i w; cell 0; cell 1; cell 2 ])
            ws;
          Table.print t)
        batches)
    clusters

let fig7 ex =
  tps_grid ex ~title:"Figure 7: FLO ktps, single DC" ~net:Settings.Single_dc

(* ---------- Figure 8: latency CDFs ---------- *)

let fig8 ex =
  let omegas = [ 1; 5; 10 ] in
  List.iter
    (fun n ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 8: block delivery latency CDF (ms), sigma=512, n=%d" n)
          ~columns:
            [ "config"; "p10"; "p25"; "p50"; "p75"; "p90"; "p99" ]
      in
      List.iter
        (fun w ->
          List.iter
            (fun beta ->
              let r =
                Settings.run_flo (base ex ~n ~workers:w ~batch:beta ~tx_size:512)
              in
              let q p =
                match
                  Fl_metrics.Recorder.histogram r.Settings.recorder
                    "latency_e2e"
                with
                | Some h ->
                    Table.cell_f
                      (float_of_int (Fl_metrics.Histogram.quantile h p)
                      /. 1e6)
                | None -> "-"
              in
              Table.add_row t
                [ Printf.sprintf "w=%d b=%d" w beta;
                  q 0.10; q 0.25; q 0.50; q 0.75; q 0.90; q 0.99 ])
            (match ex.mode with Quick -> [ 100; 1000 ] | Full -> batches))
        (match ex.mode with Quick -> [ 1; 10 ] | Full -> omegas);
      Table.print t)
    (match ex.mode with Quick -> [ 4; 10 ] | Full -> clusters)

(* ---------- Figure 9: event breakdown heatmap ---------- *)

let fig9 ex =
  let t =
    Table.create
      ~title:
        "Figure 9: relative time between events A-E (percent of A->E), \
         sigma=512"
      ~columns:[ "config"; "A->B"; "B->C"; "C->D"; "D->E" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun w ->
          List.iter
            (fun beta ->
              let r =
                Settings.run_flo (base ex ~n ~workers:w ~batch:beta ~tx_size:512)
              in
              let total =
                r.Settings.ev_ab_ms +. r.Settings.ev_bc_ms
                +. r.Settings.ev_cd_ms +. r.Settings.ev_de_ms
              in
              let pct v =
                if total <= 0.0 then "-"
                else Table.cell_f (100.0 *. v /. total) ^ "%"
              in
              Table.add_row t
                [ Printf.sprintf "n=%d w=%d b=%d" n w beta;
                  pct r.Settings.ev_ab_ms;
                  pct r.Settings.ev_bc_ms;
                  pct r.Settings.ev_cd_ms;
                  pct r.Settings.ev_de_ms ])
            (match ex.mode with Quick -> [ 1000 ] | Full -> batches))
        (match ex.mode with Quick -> [ 1; 10 ] | Full -> [ 1; 5; 10 ]))
    (match ex.mode with Quick -> [ 4; 10 ] | Full -> clusters);
  Table.print t

(* ---------- Figure 10: scalability, n = 100 ---------- *)

let fig10 ex =
  let t =
    Table.create ~title:"Figure 10: FLO ktps with n=100, sigma=512, single DC"
      ~columns:[ "workers"; "beta=10"; "beta=100"; "beta=1000" ]
  in
  let dur = match ex.mode with Quick -> Time.s 2 | Full -> Time.s 5 in
  let omegas =
    match ex.mode with Quick -> [ 1; 3 ] | Full -> [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun w ->
      let cell beta =
        let r =
          Settings.run_flo
            { (base ex ~n:100 ~workers:w ~batch:beta ~tx_size:512) with
              Settings.duration = dur }
        in
        Table.cell_f (ktps r)
      in
      Table.add_row t
        [ Table.cell_i w; cell 10; cell 100; cell 1000 ])
    omegas;
  Table.print t

(* ---------- Figure 11: crash failures ---------- *)

let fig11 ex =
  let t =
    Table.create
      ~title:
        "Figure 11: FLO ktps with f crashed nodes (crash at measurement \
         start), sigma=512"
      ~columns:[ "n(f)"; "workers"; "beta=10"; "beta=100"; "beta=1000" ]
  in
  List.iter
    (fun n ->
      let f = (n - 1) / 3 in
      List.iter
        (fun w ->
          let cell beta =
            let crash_list = List.init f (fun i -> (2 * i) + 1) in
            let r =
              Settings.run_flo
                { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
                  Settings.faults =
                    { Settings.no_faults with
                      Settings.crash_at = Some (warmup / 2, crash_list) } }
            in
            Table.cell_f (ktps r)
          in
          Table.add_row t
            [ Printf.sprintf "%d(%d)" n f;
              Table.cell_i w;
              cell 10; cell 100; cell 1000 ])
        (match ex.mode with Quick -> [ 1; 5 ] | Full -> [ 1; 3; 5; 8; 10 ]))
    clusters;
  Table.print t

(* ---------- Figure 12: Byzantine failures ---------- *)

let fig12 ex =
  let t =
    Table.create
      ~title:
        "Figure 12: FLO under Byzantine equivocation, sigma=512 (ktps and \
         recoveries/s)"
      ~columns:[ "n(f)"; "workers"; "beta"; "ktps"; "recoveries/s" ]
  in
  List.iter
    (fun n ->
      let f = (n - 1) / 3 in
      List.iter
        (fun w ->
          List.iter
            (fun beta ->
              let byz = List.init f (fun i -> (3 * i) + 1) in
              let r =
                Settings.run_flo
                  { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
                    Settings.faults =
                      { Settings.no_faults with Settings.byzantine = byz } }
              in
              Table.add_row t
                [ Printf.sprintf "%d(%d)" n f;
                  Table.cell_i w;
                  Table.cell_i beta;
                  Table.cell_f (ktps r);
                  Table.cell_f ~dec:2 r.Settings.rps ])
            (match ex.mode with Quick -> [ 100; 1000 ] | Full -> batches))
        (match ex.mode with Quick -> [ 1; 3 ] | Full -> [ 1; 2; 3; 4; 5 ]))
    clusters;
  Table.print t

(* ---------- Figures 13-15: multi data-center ---------- *)

let fig13 ex =
  let t =
    Table.create ~title:"Figure 13: FLO blocks/s, multi DC (header-only load)"
      ~columns:[ "workers"; "n=4"; "n=7"; "n=10" ]
  in
  List.iter
    (fun w ->
      let cell n =
        let r =
          Settings.run_flo
            { (base ex ~n ~workers:w ~batch:1 ~tx_size:1) with
              Settings.net = Settings.Geo }
        in
        Table.cell_f r.Settings.bps
      in
      Table.add_row t [ Table.cell_i w; cell 4; cell 7; cell 10 ])
    (omega_sweep ex.mode);
  Table.print t

let fig14 ex =
  let t =
    Table.create ~title:"Figure 14: FLO ktps, multi DC, sigma=512"
      ~columns:[ "workers"; "config"; "beta=10"; "beta=100"; "beta=1000" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun w ->
          let cell beta =
            let r =
              Settings.run_flo
                { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
                  Settings.net = Settings.Geo;
                  duration =
                    (match ex.mode with Quick -> Time.s 6 | Full -> Time.s 15) }
            in
            Table.cell_f (ktps r)
          in
          Table.add_row t
            [ Table.cell_i w;
              Printf.sprintf "n=%d" n;
              cell 10; cell 100; cell 1000 ])
        (omega_sweep ex.mode))
    clusters;
  Table.print t

let fig15 ex =
  let t =
    Table.create
      ~title:
        "Figure 15: FLO latency (ms), multi DC, sigma=512 (mean with top 5% \
         trimmed)"
      ~columns:[ "config"; "beta=10"; "beta=100"; "beta=1000" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun w ->
          let cell beta =
            let r =
              Settings.run_flo
                { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
                  Settings.net = Settings.Geo;
                  duration =
                    (match ex.mode with Quick -> Time.s 6 | Full -> Time.s 15) }
            in
            Table.cell_f r.Settings.lat_trimmed_ms
          in
          Table.add_row t
            [ Printf.sprintf "n=%d w=%d" n w; cell 10; cell 100; cell 1000 ])
        (match ex.mode with Quick -> [ 1; 10 ] | Full -> [ 1; 5; 10 ]))
    clusters;
  Table.print t

(* ---------- Figures 16-17: FLO vs HotStuff / BFT-SMaRt ---------- *)

let comparison ex ~title ~rival ~run_rival =
  let t =
    Table.create ~title
      ~columns:
        [ "n"; "sigma"; "FLO ktps"; rival ^ " ktps"; "FLO lat ms";
          rival ^ " lat ms" ]
  in
  let ns = match ex.mode with Quick -> [ 4; 10 ] | Full -> [ 4; 10; 16; 31 ] in
  let ss = match ex.mode with Quick -> [ 512 ] | Full -> [ 128; 512; 1024 ] in
  List.iter
    (fun n ->
      let f = max 0 ((n / 3) - 1) in
      List.iter
        (fun sigma ->
          let flo_r =
            Settings.run_flo
              { (base ex ~n ~workers:8 ~batch:1000 ~tx_size:sigma) with
                Settings.f = Some f;
                machine = Settings.c5_4xlarge }
          in
          let rival_r =
            run_rival (Settings.baseline ~n ~f ~batch:1000 ~tx_size:sigma)
          in
          Table.add_row t
            [ Table.cell_i n;
              Table.cell_i sigma;
              Table.cell_f (ktps flo_r);
              Table.cell_f (ktps rival_r);
              Table.cell_f flo_r.Settings.lat_mean_ms;
              Table.cell_f rival_r.Settings.lat_mean_ms ])
        ss)
    ns;
  Table.print t

let fig16 ex =
  comparison ex
    ~title:
      "Figure 16: FLO vs HotStuff (c5.4xlarge profile, beta=1000, w=8, \
       f=floor(n/3)-1)"
    ~rival:"HotStuff" ~run_rival:Settings.run_hotstuff

let fig17 ex =
  comparison ex
    ~title:
      "Figure 17: FLO vs BFT-SMaRt/PBFT (c5.4xlarge profile, beta=1000, w=8, \
       f=floor(n/3)-1)"
    ~rival:"PBFT" ~run_rival:Settings.run_pbft

(* ---------- Ablations (DESIGN.md §4) ---------- *)

let ablations ex =
  let t =
    Table.create
      ~title:
        "Ablations: design-choice contributions (n=4, beta=1000, sigma=512, \
         w=4)"
      ~columns:[ "variant"; "ktps"; "latency ms"; "notes" ]
  in
  let run ?(faults = Settings.no_faults) tweaks =
    Settings.run_flo
      { (base ex ~n:4 ~workers:4 ~batch:1000 ~tx_size:512) with
        Settings.config_tweaks = tweaks;
        faults }
  in
  let add name ?(notes = "") r =
    Table.add_row t
      [ name; Table.cell_f (ktps r); Table.cell_f r.Settings.lat_mean_ms;
        notes ]
  in
  add "full FireLedger" (run Fun.id);
  add "no piggyback (extra push step)"
    (run (fun c -> { c with Fl_fireledger.Config.piggyback = false }));
  add "no header/body separation"
    (run (fun c -> { c with Fl_fireledger.Config.separate_bodies = false }));
  let crash = { Settings.no_faults with Settings.crash_at = Some (warmup / 2, [ 1 ]) } in
  add "crash f=1, FD on" ~notes:"vs paper 6.1.1"
    (run ~faults:crash Fun.id);
  add "crash f=1, FD off" ~notes:"each rotation hit pays a timeout"
    (run ~faults:crash (fun c -> { c with Fl_fireledger.Config.fd_enabled = false }));
  add "permuted rotation"
    (run (fun c -> { c with Fl_fireledger.Config.permute_proposers = true }));
  add "gossip dissemination (fanout 3)" ~notes:"redundant traffic, softer bursts"
    (run (fun c ->
         { c with Fl_fireledger.Config.dissemination = Fl_fireledger.Config.Gossip 3 }));
  add "body pipeline depth 4" ~notes:"ships bodies ahead of turn"
    (run (fun c ->
         { c with
           Fl_fireledger.Config.pipeline_depth = 4;
           max_outstanding = 16 }));
  Table.print t

(* ---------- Durable restarts (fl_persist) ---------- *)

(* Crash/restart sweep over WAL sync policies: a victim node power-
   fails mid-run and cold-restarts later; with a durability layer it
   boots from its recovered definite watermark and catches up only the
   crash-window suffix, without one it restarts from genesis and pulls
   the whole chain from peers. Throughput (all nodes pay the WAL
   write + fsync path) against recovery time is the trade-off the sync
   policy dials. *)
let restart_durable ex =
  let open Fl_fireledger in
  let n = 4 in
  let victim = 1 in
  let total = match ex.mode with Quick -> Time.s 6 | Full -> Time.s 10 in
  let crash_at = total / 6 in
  let restart_at = total / 4 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Durable restarts: cold vs WAL sync policies (n=%d, beta=100, \
            sigma=512; victim crashes at %dms, restarts at %dms)"
           n (crash_at / 1_000_000) (restart_at / 1_000_000))
      ~columns:
        [ "variant"; "ktps"; "boot definite"; "recover ms"; "fsyncs";
          "wal MB" ]
  in
  let run name persist =
    let config =
      { (Config.default ~n) with Config.batch_size = 100; tx_size = 512 }
    in
    let cluster = Cluster.create ~seed:42 ?persist ~config () in
    let engine = cluster.Cluster.engine in
    Fl_metrics.Recorder.set_window cluster.Cluster.recorder
      ~start:(Time.ms 500) ~stop:total;
    let boot_definite = ref 0 in
    let caught_up_at = ref None in
    let target = ref max_int in
    let best_other () =
      let best = ref 0 in
      for i = 0 to n - 1 do
        if i <> victim then
          best :=
            max !best (Instance.definite_upto cluster.Cluster.instances.(i))
      done;
      !best
    in
    (* Recovery time = restart → the victim's definite prefix reaches
       the tip as it stood at the restart instant (a fixed target: the
       history the crash cost it). The cluster keeps advancing while
       the victim catches up serially, so "within k of the live tip"
       would conflate recovery with steady-state lag. *)
    let rec poll () =
      ignore
        (Engine.schedule engine ~delay:(Time.ms 5) (fun () ->
             if !caught_up_at = None then begin
               let v =
                 Instance.definite_upto cluster.Cluster.instances.(victim)
               in
               if v >= !target then caught_up_at := Some (Engine.now engine)
               else poll ()
             end))
    in
    ignore
      (Engine.schedule engine ~delay:crash_at (fun () ->
           Cluster.crash cluster victim));
    ignore
      (Engine.schedule engine ~delay:restart_at (fun () ->
           target := best_other ();
           Cluster.restart cluster victim;
           boot_definite :=
             Instance.definite_upto cluster.Cluster.instances.(victim);
           poll ()));
    Cluster.start cluster;
    Cluster.run ~until:total cluster;
    let tps =
      Fl_metrics.Recorder.rate_per_s cluster.Cluster.recorder "txs_definite"
      /. float_of_int n
    in
    let fsyncs = ref 0 and bytes = ref 0 in
    for i = 0 to n - 1 do
      match Cluster.persist_node cluster i with
      | Some p ->
          let s = Fl_persist.Node.stats p in
          fsyncs := !fsyncs + s.Fl_persist.Node.s_fsyncs;
          bytes := !bytes + s.Fl_persist.Node.s_bytes
      | None -> ()
    done;
    Table.add_row t
      [ name;
        Table.cell_f (tps /. 1000.0);
        Table.cell_i !boot_definite;
        (match !caught_up_at with
        | Some at -> Table.cell_f ~dec:1 (float_of_int (at - restart_at) /. 1e6)
        | None -> "never");
        Table.cell_i !fsyncs;
        Table.cell_f ~dec:2 (float_of_int !bytes /. 1e6) ]
  in
  let p sync =
    Some { Fl_persist.Node.default_config with Fl_persist.Node.sync }
  in
  run "cold (no persistence)" None;
  run "wal, sync=never" (p Fl_persist.Node.Never);
  run "wal, group_commit 2ms" (p (Fl_persist.Node.Group_commit (Time.ms 2)));
  run "wal, every_block" (p Fl_persist.Node.Every_block);
  (match ex.mode with
  | Quick -> ()
  | Full ->
      run "wal, group_commit 2ms, hdd"
        (Some
           { Fl_persist.Node.default_config with
             Fl_persist.Node.profile = Fl_persist.Disk.hdd;
             sync = Fl_persist.Node.Group_commit (Time.ms 2) });
      run "wal, every_block, hdd"
        (Some
           { Fl_persist.Node.default_config with
             Fl_persist.Node.profile = Fl_persist.Disk.hdd;
             sync = Fl_persist.Node.Every_block }));
  Table.print t

(* ---------- Saturation studies (traffic tier) ---------- *)

(* One run with the aggregate open-loop source attached to node 0:
   fill_blocks off (blocks carry real client transactions only), a
   deliberately small mempool so overload is visible, the source's
   completions fed from the node's FLO merge output and the mempool's
   eviction signal. Returns the harness result plus the source's
   conservation ledger. *)
let run_traffic ex ~rate_per_s ~pool_cap ~read_ratio ~consistency ?(surges = [])
    ?(seed = 42) ~n ~workers ~batch ~tx_size () =
  let open Fl_load in
  let src_ref = ref None in
  let s =
    { (base ex ~n ~workers ~batch ~tx_size) with
      Settings.seed;
      warmup = Time.ms 500;
      duration = (match ex.mode with Quick -> Time.s 2 | Full -> Time.s 6);
      config_tweaks =
        (fun c ->
          { c with
            Fl_fireledger.Config.fill_blocks = false;
            mempool_capacity = pool_cap });
      on_deliver =
        Some
          (fun ~node d ->
            if node = 0 then
              match !src_ref with
              | Some src ->
                  Source.note_block src d.Fl_flo.Node.block.Fl_chain.Block.txs
                    ~a:d.Fl_flo.Node.times.Fl_fireledger.Instance.a
                    ~final:d.Fl_flo.Node.delivered_at
              | None -> ()) }
  in
  let cluster = Settings.build_flo s in
  let engine = cluster.Fl_flo.Cluster.engine in
  let arrivals = Arrivals.create ~rate_per_s ~surges () in
  let cfg =
    { (Source.default_config ~arrivals) with
      Source.tx_size;
      accounts = 1_000_000;
      read_ratio;
      consistency }
  in
  let sink tx ~fee =
    Fl_flo.Node.submit_fee cluster.Fl_flo.Cluster.nodes.(0) tx ~fee
  in
  let src =
    Source.create engine
      ~rng:(Rng.create (seed + 7919))
      ~recorder:cluster.Fl_flo.Cluster.recorder ~sink cfg
  in
  src_ref := Some src;
  Array.iter
    (fun inst ->
      Fl_chain.Mempool.set_on_evict
        (Fl_fireledger.Instance.mempool inst)
        (Some (fun tx ~fee -> Source.note_evicted src tx ~fee)))
    cluster.Fl_flo.Cluster.workers.(0);
  Source.start src;
  let r = Settings.run_cluster s cluster in
  Source.stop src;
  (r, Source.stats src, s)

let saturation ex =
  let n = 4 and workers = 2 and batch = 100 and tx_size = 128 in
  (* Calibrate the drain capacity once with the paper's full-load mode
     (proposers pad blocks to β themselves), then sweep the offered
     client load as multiples of it. *)
  let cal =
    Settings.run_flo
      { (base ex ~n ~workers ~batch ~tx_size) with
        Settings.warmup = Time.ms 500;
        duration = Time.s 2 }
  in
  (* the source submits to node 0 only, and client transactions drain
     only through node 0's own proposals — 1/n of the rounds — so the
     relevant drain capacity is the per-node share *)
  let capacity = cal.Settings.tps /. float_of_int n in
  Printf.printf
    "calibrated drain capacity: %.1f ktps full-load, %.1f ktps node-0 share\n%!"
    (cal.Settings.tps /. 1000.0) (capacity /. 1000.0);
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Saturation sweep: open-loop client load into node 0 (n=%d w=%d \
            beta=%d sigma=%d, pool=%d txs, 3 retries)"
           n workers batch tx_size (4 * batch))
      ~columns:
        [ "offered x"; "offered ktps"; "goodput ktps"; "dropped"; "evicted";
          "admit p50 ms"; "e2e p50 ms"; "e2e p99 ms"; "backpressure" ]
  in
  let mults =
    match ex.mode with
    | Quick -> [ 0.3; 0.9; 1.8; 2.7 ]
    | Full -> [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.3; 1.8; 2.5; 3.5 ]
  in
  let points =
    List.map
      (fun m ->
        let rate = capacity *. m in
        let r, st, s =
          run_traffic ex ~rate_per_s:rate ~pool_cap:(4 * batch)
            ~read_ratio:0. ~consistency:Fl_load.Source.Session ~n ~workers
            ~batch ~tx_size ()
        in
        let secs =
          Fl_sim.Time.to_float_s (s.Settings.warmup + s.Settings.duration)
        in
        let goodput = float_of_int st.Fl_load.Source.finalized /. secs in
        Table.add_row t
          [ Table.cell_f ~dec:1 m;
            Table.cell_f ~dec:1 (rate /. 1000.0);
            Table.cell_f ~dec:1 (goodput /. 1000.0);
            Table.cell_i st.Fl_load.Source.dropped;
            Table.cell_i st.Fl_load.Source.evicted;
            Table.cell_f ~dec:2
              (Settings.histo_q_ms r.Settings.recorder "phase_admission_wait"
                 0.50);
            Table.cell_f ~dec:2
              (Settings.histo_q_ms r.Settings.recorder "latency_client_e2e"
                 0.50);
            Table.cell_f ~dec:2
              (Settings.histo_q_ms r.Settings.recorder "latency_client_e2e"
                 0.99);
            Table.cell_i st.Fl_load.Source.backpressured ];
        (rate, goodput))
      mults
  in
  Table.print t;
  (* knee: the last sweep point whose goodput still grew ≥ 10% over
     its predecessor *)
  (match points with
  | [] | [ _ ] -> ()
  | (_, g0) :: rest ->
      let knee, _ =
        List.fold_left
          (fun (knee, prev) (rate, g) ->
            if g >= prev *. 1.10 then ((rate, g), g) else (knee, prev))
          (((match points with (r0, g) :: _ -> (r0, g) | [] -> (0., 0.)), g0))
          rest
      in
      Printf.printf "knee: goodput plateaus at ~%.1f ktps (offered %.1f ktps)\n%!"
        (snd knee /. 1000.0) (fst knee /. 1000.0));
  (* replica read path: same load, reads riding along under the two
     consistency options *)
  let rt =
    Table.create
      ~title:"Replica reads under load (0.9x capacity, 0.5 reads/write)"
      ~columns:[ "consistency"; "reads"; "stale %"; "staleness p99 ms" ]
  in
  List.iter
    (fun (name, c) ->
      let r, st, _ =
        run_traffic ex ~rate_per_s:(capacity *. 0.9) ~pool_cap:(4 * batch)
          ~read_ratio:0.5 ~consistency:c ~n ~workers ~batch ~tx_size ()
      in
      let stale_pct =
        if st.Fl_load.Source.reads = 0 then 0.
        else
          100.0
          *. float_of_int st.Fl_load.Source.reads_stale
          /. float_of_int st.Fl_load.Source.reads
      in
      Table.add_row rt
        [ name;
          Table.cell_i st.Fl_load.Source.reads;
          Table.cell_f ~dec:1 stale_pct;
          Table.cell_f ~dec:1
            (Settings.histo_q_ms r.Settings.recorder "read_staleness" 0.99) ])
    [ ("session", Fl_load.Source.Session);
      ("bounded 50ms", Fl_load.Source.Bounded_staleness (Time.ms 50));
      ("bounded 500ms", Fl_load.Source.Bounded_staleness (Time.ms 500)) ];
  Table.print rt;
  (* flash crowd: a 4x surge window mid-measurement *)
  match ex.mode with
  | Quick -> ()
  | Full ->
      let surge =
        { Fl_load.Arrivals.from_ = Time.s 2;
          until = Time.s 3;
          factor = 4.0 }
      in
      let st_tbl =
        Table.create ~title:"Flash crowd: 4x surge over [2s,3s) at 0.8x base"
          ~columns:
            [ "variant"; "goodput ktps"; "dropped"; "evicted"; "e2e p99 ms" ]
      in
      List.iter
        (fun (name, surges) ->
          let r, st, s =
            run_traffic ex ~rate_per_s:(capacity *. 0.8)
              ~pool_cap:(4 * batch) ~read_ratio:0.
              ~consistency:Fl_load.Source.Session ~surges ~n ~workers ~batch
              ~tx_size ()
          in
          let secs =
            Fl_sim.Time.to_float_s (s.Settings.warmup + s.Settings.duration)
          in
          Table.add_row st_tbl
            [ name;
              Table.cell_f ~dec:1
                (float_of_int st.Fl_load.Source.finalized /. secs /. 1000.0);
              Table.cell_i st.Fl_load.Source.dropped;
              Table.cell_i st.Fl_load.Source.evicted;
              Table.cell_f ~dec:2
                (Settings.histo_q_ms r.Settings.recorder "latency_client_e2e"
                   0.99) ])
        [ ("steady", []); ("4x surge", [ surge ]) ];
      Table.print st_tbl

let all =
  [ ("table1", "Table 1: per-mode protocol costs", table1);
    ("fig5", "Figure 5: signature generation rate", fig5);
    ("fig6", "Figure 6: single-DC blocks/s", fig6);
    ("fig7", "Figure 7: single-DC tps grid", fig7);
    ("fig8", "Figure 8: single-DC latency CDFs", fig8);
    ("fig9", "Figure 9: event-gap breakdown", fig9);
    ("fig10", "Figure 10: scalability n=100", fig10);
    ("fig11", "Figure 11: crash failures", fig11);
    ("fig12", "Figure 12: Byzantine failures", fig12);
    ("fig13", "Figure 13: multi-DC blocks/s", fig13);
    ("fig14", "Figure 14: multi-DC tps", fig14);
    ("fig15", "Figure 15: multi-DC latency", fig15);
    ("fig16", "Figure 16: FLO vs HotStuff", fig16);
    ("fig17", "Figure 17: FLO vs BFT-SMaRt", fig17);
    ("ablations", "Design-choice ablations", ablations);
    ("restart_durable", "Durable restarts: WAL sync-policy sweep",
     restart_durable);
    ("saturation", "Saturation studies: open-loop load sweep and replica reads",
     saturation) ]

(* Host-time footer: wall clock (monotonic, via Fl_prof) plus the
   sim-rate delta accumulated by the Settings drivers this experiment
   called. *)
let sim_rate_delta before =
  let a = Settings.run_stats () in
  Settings.
    { rs_host_ns = a.rs_host_ns - before.rs_host_ns;
      rs_sim_ns = a.rs_sim_ns - before.rs_sim_ns;
      rs_events = a.rs_events - before.rs_events;
      rs_runs = a.rs_runs - before.rs_runs }

let timed id driver ex =
  let t0 = Fl_prof.Clock.now_ns_int () in
  let stats0 = Settings.run_stats () in
  driver ex;
  let wall_s = float_of_int (Fl_prof.Clock.now_ns_int () - t0) /. 1e9 in
  match Settings.sim_rate_line (sim_rate_delta stats0) with
  | Some line ->
      Printf.printf "(%s finished in %.1fs wall; %s)\n%!" id wall_s line
  | None -> Printf.printf "(%s finished in %.1fs wall)\n%!" id wall_s

(* One sink is shared by every run it is given to and is not
   domain-safe, so a traced invocation must be sequential. *)
let make_run ?(jobs = 1) ?obs mode =
  if Option.is_some obs && jobs > 1 then
    invalid_arg "Experiments: an obs sink needs jobs = 1";
  { mode; jobs; obs }

let run_by_id ?jobs ?obs id mode =
  let ex = make_run ?jobs ?obs mode in
  match List.find_opt (fun (i, _, _) -> String.equal i id) all with
  | Some (_, _, driver) ->
      timed id driver ex;
      true
  | None -> false

let run_all ?jobs ?obs mode =
  let ex = make_run ?jobs ?obs mode in
  List.iter
    (fun (id, desc, driver) ->
      Printf.printf "\n###### %s — %s ######\n%!" id desc;
      timed id driver ex)
    all
