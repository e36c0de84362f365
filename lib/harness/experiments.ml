open Fl_sim

type mode = Quick | Full

type run = { mode : mode; jobs : int; obs : Fl_obs.Obs.t option }

let pick ex ~quick ~full = match ex.mode with Quick -> quick | Full -> full

(* Every run of every driver goes through this one sweep. Results merge
   in list order, and with [jobs = 1] the runs execute in that order,
   so neither a table nor a traced run's sink depends on [jobs]. *)
let sweep ex runs =
  let runs = Array.of_list runs in
  Array.to_list
    (Par.map ~jobs:ex.jobs (Array.length runs) (fun i -> runs.(i) ()))

let table ~title ~columns rows =
  let t = Table.create ~title ~columns in
  List.iter (Table.add_row t) rows;
  t

(* Grid-shaped tables. A row lists the FLO settings it runs and builds
   its cells from their results, in the same order; the runs of every
   row of every table form one sweep, in row order. *)
let grids ex tables =
  let settings =
    List.concat_map (fun (_, _, rows) -> List.concat_map fst rows) tables
  in
  let results =
    Array.of_list
      (sweep ex (List.map (fun s () -> Settings.run_flo s) settings))
  in
  let fill off (settings, cells) =
    let k = List.length settings in
    (off + k, cells (Array.to_list (Array.sub results off k)))
  in
  snd
    (List.fold_left_map
       (fun off (title, columns, rows) ->
         let off, rows = List.fold_left_map fill off rows in
         (off, table ~title ~columns rows))
       0 tables)

let grid ex ~title ~columns rows = grids ex [ (title, columns, rows) ]

(* A row of one run, whose cells all come from its result. *)
let single s cells = ([ s ], List.concat_map cells)

(* A row of one cell per run, after its label cells. *)
let per_run label cell settings = (settings, fun rs -> label @ List.map cell rs)

let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let warmup = Time.s 1

let omega_sweep ex = pick ex ~quick:[ 1; 4; 10 ] ~full:[ 1; 2; 4; 6; 8; 10 ]
let sizes = [ 512; 1024; 4096 ]
let batches = [ 10; 100; 1000 ]
let clusters = [ 4; 7; 10 ]

let base ex ~n ~workers ~batch ~tx_size =
  { (Settings.flo ~n ~workers ~batch ~tx_size) with
    Settings.warmup;
    duration = pick ex ~quick:(Time.s 3) ~full:(Time.s 10);
    obs = ex.obs }

let ktps_cell r = Table.cell_f (r.Settings.tps /. 1000.0)

(* ---------- Table 1: per-mode protocol costs ---------- *)

let table1 ex =
  let n = 4 in
  let run faults () =
    Settings.run_flo
      { (base ex ~n ~workers:1 ~batch:100 ~tx_size:512) with Settings.faults }
  in
  let results =
    sweep ex
      [ run Settings.no_faults;
        run { Settings.no_faults with Settings.loss = Some (1, 0.6) };
        run { Settings.no_faults with Settings.byzantine = [ 2 ] } ]
  in
  (* Every row divides like by like. "blocks_delivered" counts at every
     node, so the distinct block count is that count divided by n. The
     recorder's rows read the measurement window; [Net] counts messages
     over the whole run only, so their row reads whole-run blocks. *)
  let per_block count c =
    float_of_int c /. float_of_int (max 1 (count "blocks_delivered" / n))
  in
  let windowed name r =
    let count = Fl_metrics.Recorder.windowed_count r.Settings.recorder in
    per_block count (count name)
  in
  let row name f =
    name :: List.map (fun r -> Table.cell_f ~dec:2 (f r)) results
  in
  [ table ~title:"Table 1: FireLedger cost per decided block"
      ~columns:[ "metric"; "fault-free"; "timing/omission"; "byzantine" ]
      [ row "messages / block / node" (fun r ->
            per_block
              (Fl_metrics.Recorder.counter r.Settings.recorder)
              r.Settings.messages
            /. float_of_int n);
        row "signatures / block" (windowed "signatures");
        row "verifications / block" (windowed "verifications");
        row "OBBC slow paths / block" (windowed "obbc_slow_paths");
        row "recoveries / s" (fun r -> r.Settings.rps);
        row "finality latency (rounds)" (fun _ ->
            float_of_int (((n - 1) / 3) + 2)) ] ]

(* ---------- Figure 5: signature generation rate ---------- *)

let fig5 _ex =
  let cost = Settings.m5_xlarge.Settings.cost in
  let sps ~beta ~sigma w =
    (* ω worker threads on 4 vCPUs: parallelism caps at the core
       count *)
    Table.cell_f
      (Fl_crypto.Cost_model.signatures_per_second cost
         ~payload_bytes:(beta * sigma)
         ~cores:(min w Settings.m5_xlarge.Settings.cores))
  in
  [ table
      ~title:
        "Figure 5: signatures/s on one VM (cost model; see bench for the \
         measured-hardware calibration)"
      ~columns:[ "beta"; "sigma"; "w=1"; "w=2"; "w=4"; "w=8" ]
      (List.map
         (fun (beta, sigma) ->
           Table.cell_i beta :: Table.cell_i sigma
           :: List.map (sps ~beta ~sigma) [ 1; 2; 4; 8 ])
         (cross batches sizes)) ]

(* ---------- Figures 6 and 13: blocks/s, header-only load ---------- *)

let blocks_grid ex ~title net =
  grid ex ~title ~columns:[ "workers"; "n=4"; "n=7"; "n=10" ]
    (List.map
       (fun w ->
         per_run [ Table.cell_i w ]
           (fun r -> Table.cell_f r.Settings.bps)
           (List.map
              (fun n ->
                { (base ex ~n ~workers:w ~batch:1 ~tx_size:1) with
                  Settings.net })
              clusters))
       (omega_sweep ex))

let fig6 ex =
  blocks_grid ex ~title:"Figure 6: FLO blocks/s, single DC (header-only load)"
    Settings.Single_dc

let fig13 ex =
  blocks_grid ex ~title:"Figure 13: FLO blocks/s, multi DC (header-only load)"
    Settings.Geo

(* ---------- Figure 7: single-DC tps grid ---------- *)

let fig7 ex =
  grids ex
    (List.map
       (fun (n, beta) ->
         ( Printf.sprintf "Figure 7: FLO ktps, single DC  n=%d beta=%d" n beta,
           [ "workers"; "sigma=512"; "sigma=1K"; "sigma=4K" ],
           List.map
             (fun w ->
               per_run [ Table.cell_i w ] ktps_cell
                 (List.map
                    (fun sigma ->
                      base ex ~n ~workers:w ~batch:beta ~tx_size:sigma)
                    sizes))
             (omega_sweep ex) ))
       (cross clusters batches))

(* ---------- Figure 8: latency CDFs ---------- *)

let fig8 ex =
  grids ex
    (List.map
       (fun n ->
         ( Printf.sprintf
             "Figure 8: block delivery latency CDF (ms), sigma=512, n=%d" n,
           [ "config"; "p10"; "p25"; "p50"; "p75"; "p90"; "p99" ],
           List.map
             (fun (w, beta) ->
               single (base ex ~n ~workers:w ~batch:beta ~tx_size:512)
                 (fun r ->
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
                   Printf.sprintf "w=%d b=%d" w beta
                   :: List.map q [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.99 ]))
             (cross
                (pick ex ~quick:[ 1; 10 ] ~full:[ 1; 5; 10 ])
                (pick ex ~quick:[ 100; 1000 ] ~full:batches)) ))
       (pick ex ~quick:[ 4; 10 ] ~full:clusters))

(* ---------- Figure 9: event breakdown heatmap ---------- *)

let fig9 ex =
  grid ex
    ~title:
      "Figure 9: relative time between events A-E (percent of A->E), \
       sigma=512"
    ~columns:[ "config"; "A->B"; "B->C"; "C->D"; "D->E" ]
    (List.map
       (fun ((n, w), beta) ->
         single (base ex ~n ~workers:w ~batch:beta ~tx_size:512) (fun r ->
             let gaps =
               Settings.
                 [ r.ev_ab_ms; r.ev_bc_ms; r.ev_cd_ms; r.ev_de_ms ]
             in
             let total = List.fold_left ( +. ) 0.0 gaps in
             let pct v =
               if total <= 0.0 then "-"
               else Table.cell_f (100.0 *. v /. total) ^ "%"
             in
             Printf.sprintf "n=%d w=%d b=%d" n w beta :: List.map pct gaps))
       (cross
          (cross
             (pick ex ~quick:[ 4; 10 ] ~full:clusters)
             (pick ex ~quick:[ 1; 10 ] ~full:[ 1; 5; 10 ]))
          (pick ex ~quick:[ 1000 ] ~full:batches)))

(* ---------- Figure 10: scalability, n = 100 ---------- *)

let fig10 ex =
  grid ex ~title:"Figure 10: FLO ktps with n=100, sigma=512, single DC"
    ~columns:[ "workers"; "beta=10"; "beta=100"; "beta=1000" ]
    (List.map
       (fun w ->
         per_run [ Table.cell_i w ] ktps_cell
           (List.map
              (fun beta ->
                { (base ex ~n:100 ~workers:w ~batch:beta ~tx_size:512) with
                  Settings.duration =
                    pick ex ~quick:(Time.s 2) ~full:(Time.s 5) })
              batches))
       (pick ex ~quick:[ 1; 3 ] ~full:[ 1; 2; 3; 4; 5 ]))

(* ---------- Figure 11: crash failures ---------- *)

let fig11 ex =
  grid ex
    ~title:
      "Figure 11: FLO ktps with f crashed nodes (crash at measurement \
       start), sigma=512"
    ~columns:[ "n(f)"; "workers"; "beta=10"; "beta=100"; "beta=1000" ]
    (List.map
       (fun (n, w) ->
         let f = (n - 1) / 3 in
         let faults =
           { Settings.no_faults with
             Settings.crash_at =
               Some (warmup / 2, List.init f (fun i -> (2 * i) + 1)) }
         in
         per_run
           [ Printf.sprintf "%d(%d)" n f; Table.cell_i w ]
           ktps_cell
           (List.map
              (fun beta ->
                { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
                  Settings.faults })
              batches))
       (cross clusters (pick ex ~quick:[ 1; 5 ] ~full:[ 1; 3; 5; 8; 10 ])))

(* ---------- Figure 12: Byzantine failures ---------- *)

let fig12 ex =
  grid ex
    ~title:
      "Figure 12: FLO under Byzantine equivocation, sigma=512 (ktps and \
       recoveries/s)"
    ~columns:[ "n(f)"; "workers"; "beta"; "ktps"; "recoveries/s" ]
    (List.map
       (fun ((n, w), beta) ->
         let f = (n - 1) / 3 in
         single
           { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
             Settings.faults =
               { Settings.no_faults with
                 Settings.byzantine = List.init f (fun i -> (3 * i) + 1) } }
           (fun r ->
             [ Printf.sprintf "%d(%d)" n f;
               Table.cell_i w;
               Table.cell_i beta;
               ktps_cell r;
               Table.cell_f ~dec:2 r.Settings.rps ]))
       (cross
          (cross clusters (pick ex ~quick:[ 1; 3 ] ~full:[ 1; 2; 3; 4; 5 ]))
          (pick ex ~quick:[ 100; 1000 ] ~full:batches)))

(* ---------- Figures 14-15: multi data-center ---------- *)

(* One Figure 14/15 row: (n, w) over every β, multi DC. *)
let geo_row ex label cell (n, w) =
  per_run (label n w) cell
    (List.map
       (fun beta ->
         { (base ex ~n ~workers:w ~batch:beta ~tx_size:512) with
           Settings.net = Settings.Geo;
           duration = pick ex ~quick:(Time.s 6) ~full:(Time.s 15) })
       batches)

let fig14 ex =
  grid ex ~title:"Figure 14: FLO ktps, multi DC, sigma=512"
    ~columns:[ "workers"; "config"; "beta=10"; "beta=100"; "beta=1000" ]
    (List.map
       (geo_row ex
          (fun n w -> [ Table.cell_i w; Printf.sprintf "n=%d" n ])
          ktps_cell)
       (cross clusters (omega_sweep ex)))

let fig15 ex =
  grid ex
    ~title:
      "Figure 15: FLO latency (ms), multi DC, sigma=512 (mean with top 5% \
       trimmed)"
    ~columns:[ "config"; "beta=10"; "beta=100"; "beta=1000" ]
    (List.map
       (geo_row ex
          (fun n w -> [ Printf.sprintf "n=%d w=%d" n w ])
          (fun r -> Table.cell_f r.Settings.lat_trimmed_ms))
       (cross clusters (pick ex ~quick:[ 1; 10 ] ~full:[ 1; 5; 10 ])))

(* ---------- Figures 16-17: FLO vs HotStuff / BFT-SMaRt ---------- *)

let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> []

let comparison ex ~title ~rival ~run_rival =
  let points =
    cross
      (pick ex ~quick:[ 4; 10 ] ~full:[ 4; 10; 16; 31 ])
      (pick ex ~quick:[ 512 ] ~full:[ 128; 512; 1024 ])
  in
  (* The FLO run and the rival's alternate per point. *)
  let results =
    sweep ex
      (List.concat_map
         (fun (n, sigma) ->
           let f = max 0 ((n / 3) - 1) in
           [ (fun () ->
               Settings.run_flo
                 { (base ex ~n ~workers:8 ~batch:1000 ~tx_size:sigma) with
                   Settings.f = Some f;
                   machine = Settings.c5_4xlarge });
             (fun () ->
               run_rival (Settings.baseline ~n ~f ~batch:1000 ~tx_size:sigma))
           ])
         points)
  in
  [ table ~title
      ~columns:
        [ "n"; "sigma"; "FLO ktps"; rival ^ " ktps"; "FLO lat ms";
          rival ^ " lat ms" ]
      (List.map2
         (fun (n, sigma) (flo_r, rival_r) ->
           [ Table.cell_i n;
             Table.cell_i sigma;
             ktps_cell flo_r;
             ktps_cell rival_r;
             Table.cell_f flo_r.Settings.lat_mean_ms;
             Table.cell_f rival_r.Settings.lat_mean_ms ])
         points (pairs results)) ]

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
  let variant ?(notes = "") ?(faults = Settings.no_faults) name config_tweaks
      =
    single
      { (base ex ~n:4 ~workers:4 ~batch:1000 ~tx_size:512) with
        Settings.config_tweaks;
        faults }
      (fun r ->
        [ name; ktps_cell r; Table.cell_f r.Settings.lat_mean_ms; notes ])
  in
  let crash =
    { Settings.no_faults with Settings.crash_at = Some (warmup / 2, [ 1 ]) }
  in
  grid ex
    ~title:
      "Ablations: design-choice contributions (n=4, beta=1000, sigma=512, \
       w=4)"
    ~columns:[ "variant"; "ktps"; "latency ms"; "notes" ]
    [ variant "full FireLedger" Fun.id;
      variant "no piggyback (extra push step)" (fun c ->
          { c with Fl_fireledger.Config.piggyback = false });
      variant "no header/body separation" (fun c ->
          { c with Fl_fireledger.Config.separate_bodies = false });
      variant "crash f=1, FD on" ~notes:"vs paper 6.1.1" ~faults:crash Fun.id;
      variant "crash f=1, FD off" ~notes:"each rotation hit pays a timeout"
        ~faults:crash (fun c ->
          { c with Fl_fireledger.Config.fd_enabled = false });
      variant "permuted rotation" (fun c ->
          { c with Fl_fireledger.Config.permute_proposers = true });
      variant "gossip dissemination (fanout 3)"
        ~notes:"redundant traffic, softer bursts" (fun c ->
          { c with
            Fl_fireledger.Config.dissemination = Fl_fireledger.Config.Gossip 3
          });
      variant "body pipeline depth 4" ~notes:"ships bodies ahead of turn"
        (fun c ->
          { c with
            Fl_fireledger.Config.pipeline_depth = 4;
            max_outstanding = 16 }) ]

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
  let total = pick ex ~quick:(Time.s 6) ~full:(Time.s 10) in
  let crash_at = total / 6 in
  let restart_at = total / 4 in
  let run name persist () =
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
    let definite i = Instance.definite_upto cluster.Cluster.instances.(i) in
    let best_other () =
      List.fold_left
        (fun best i -> if i = victim then best else max best (definite i))
        0 (List.init n Fun.id)
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
               if definite victim >= !target then
                 caught_up_at := Some (Engine.now engine)
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
           boot_definite := definite victim;
           poll ()));
    Cluster.start cluster;
    Cluster.run ~until:total cluster;
    let tps =
      Fl_metrics.Recorder.rate_per_s cluster.Cluster.recorder "txs_definite"
      /. float_of_int n
    in
    let stats =
      List.filter_map
        (fun i ->
          Option.map Fl_persist.Node.stats (Cluster.persist_node cluster i))
        (List.init n Fun.id)
    in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    [ name;
      Table.cell_f (tps /. 1000.0);
      Table.cell_i !boot_definite;
      (match !caught_up_at with
      | Some at -> Table.cell_f ~dec:1 (float_of_int (at - restart_at) /. 1e6)
      | None -> "never");
      Table.cell_i (sum (fun s -> s.Fl_persist.Node.s_fsyncs));
      Table.cell_f ~dec:2
        (float_of_int (sum (fun s -> s.Fl_persist.Node.s_bytes)) /. 1e6) ]
  in
  let wal ?(profile = Fl_persist.Node.default_config.Fl_persist.Node.profile)
      sync =
    Some { Fl_persist.Node.default_config with Fl_persist.Node.sync; profile }
  in
  let group_commit = Fl_persist.Node.Group_commit (Time.ms 2) in
  let hdd = Fl_persist.Disk.hdd in
  [ table
      ~title:
        (Printf.sprintf
           "Durable restarts: cold vs WAL sync policies (n=%d, beta=100, \
            sigma=512; victim crashes at %dms, restarts at %dms)"
           n (crash_at / 1_000_000) (restart_at / 1_000_000))
      ~columns:
        [ "variant"; "ktps"; "boot definite"; "recover ms"; "fsyncs";
          "wal MB" ]
      (sweep ex
         ([ run "cold (no persistence)" None;
            run "wal, sync=never" (wal Fl_persist.Node.Never);
            run "wal, group_commit 2ms" (wal group_commit);
            run "wal, every_block" (wal Fl_persist.Node.Every_block) ]
         @ pick ex ~quick:[]
             ~full:
               [ run "wal, group_commit 2ms, hdd"
                   (wal ~profile:hdd group_commit);
                 run "wal, every_block, hdd"
                   (wal ~profile:hdd Fl_persist.Node.Every_block) ])) ]

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
      duration = pick ex ~quick:(Time.s 2) ~full:(Time.s 6);
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
  let open Fl_load.Source in
  let n = 4 and workers = 2 and batch = 100 and tx_size = 128 in
  (* Calibrate the drain capacity once with the paper's full-load mode
     (proposers pad blocks to β themselves), then sweep the offered
     client load as multiples of it. *)
  let cal =
    List.hd
      (sweep ex
         [ (fun () ->
             Settings.run_flo
               { (base ex ~n ~workers ~batch ~tx_size) with
                 Settings.warmup = Time.ms 500;
                 duration = Time.s 2 }) ])
  in
  (* the source submits to node 0 only, and client transactions drain
     only through node 0's own proposals — 1/n of the rounds — so the
     relevant drain capacity is the per-node share *)
  let capacity = cal.Settings.tps /. float_of_int n in
  let traffic ?surges ~rate ~read_ratio consistency () =
    run_traffic ex ~rate_per_s:rate ~pool_cap:(4 * batch) ~read_ratio
      ~consistency ?surges ~n ~workers ~batch ~tx_size ()
  in
  let goodput (_, st, s) =
    float_of_int st.finalized
    /. Time.to_float_s (s.Settings.warmup + s.Settings.duration)
  in
  let e2e_ms (r, _, _) q =
    Settings.histo_q_ms r.Settings.recorder "latency_client_e2e" q
  in
  let mults =
    pick ex ~quick:[ 0.3; 0.9; 1.8; 2.7 ]
      ~full:[ 0.2; 0.4; 0.6; 0.8; 1.0; 1.3; 1.8; 2.5; 3.5 ]
  in
  let loads =
    sweep ex
      (List.map
         (fun m -> traffic ~rate:(capacity *. m) ~read_ratio:0. Session)
         mults)
  in
  (* knee: the last sweep point whose goodput still grew ≥ 10% over
     its predecessor *)
  let knee =
    match List.map2 (fun m p -> (capacity *. m, goodput p)) mults loads with
    | [] | [ _ ] -> []
    | ((_, g0) as p0) :: rest ->
        let (rate, g), _ =
          List.fold_left
            (fun (knee, prev) (rate, g) ->
              if g >= prev *. 1.10 then ((rate, g), g) else (knee, prev))
            (p0, g0) rest
        in
        [ [ "knee: goodput plateau"; Table.cell_f ~dec:1 (g /. 1000.0) ];
          [ "knee: offered load"; Table.cell_f ~dec:1 (rate /. 1000.0) ] ]
  in
  let calibration =
    table ~title:"Saturation calibration" ~columns:[ "quantity"; "ktps" ]
      ([ [ "drain capacity, full load";
           Table.cell_f ~dec:1 (cal.Settings.tps /. 1000.0) ];
         [ "drain capacity, node-0 share";
           Table.cell_f ~dec:1 (capacity /. 1000.0) ] ]
      @ knee)
  in
  let load_table =
    table
      ~title:
        (Printf.sprintf
           "Saturation sweep: open-loop client load into node 0 (n=%d w=%d \
            beta=%d sigma=%d, pool=%d txs, 3 retries)"
           n workers batch tx_size (4 * batch))
      ~columns:
        [ "offered x"; "offered ktps"; "goodput ktps"; "dropped"; "evicted";
          "admit p50 ms"; "e2e p50 ms"; "e2e p99 ms"; "backpressure" ]
      (List.map2
         (fun m ((r, st, _) as p) ->
           [ Table.cell_f ~dec:1 m;
             Table.cell_f ~dec:1 (capacity *. m /. 1000.0);
             Table.cell_f ~dec:1 (goodput p /. 1000.0);
             Table.cell_i st.dropped;
             Table.cell_i st.evicted;
             Table.cell_f ~dec:2
               (Settings.histo_q_ms r.Settings.recorder "phase_admission_wait"
                  0.50);
             Table.cell_f ~dec:2 (e2e_ms p 0.50);
             Table.cell_f ~dec:2 (e2e_ms p 0.99);
             Table.cell_i st.backpressured ])
         mults loads)
  in
  (* replica read path: same load, reads riding along under the two
     consistency options *)
  let consistencies =
    [ ("session", Session);
      ("bounded 50ms", Bounded_staleness (Time.ms 50));
      ("bounded 500ms", Bounded_staleness (Time.ms 500)) ]
  in
  let reads_table =
    table ~title:"Replica reads under load (0.9x capacity, 0.5 reads/write)"
      ~columns:[ "consistency"; "reads"; "stale %"; "staleness p99 ms" ]
      (List.map2
         (fun (name, _) (r, st, _) ->
           let stale_pct =
             if st.reads = 0 then 0.
             else 100.0 *. float_of_int st.reads_stale /. float_of_int st.reads
           in
           [ name;
             Table.cell_i st.reads;
             Table.cell_f ~dec:1 stale_pct;
             Table.cell_f ~dec:1
               (Settings.histo_q_ms r.Settings.recorder "read_staleness" 0.99)
           ])
         consistencies
         (sweep ex
            (List.map
               (fun (_, c) ->
                 traffic ~rate:(capacity *. 0.9) ~read_ratio:0.5 c)
               consistencies)))
  in
  (* flash crowd: a 4x surge window mid-measurement (Full only) *)
  let flash_crowd () =
    let variants =
      [ ("steady", []);
        ( "4x surge",
          [ { Fl_load.Arrivals.from_ = Time.s 2;
              until = Time.s 3;
              factor = 4.0 } ] ) ]
    in
    table ~title:"Flash crowd: 4x surge over [2s,3s) at 0.8x base"
      ~columns:[ "variant"; "goodput ktps"; "dropped"; "evicted"; "e2e p99 ms" ]
      (List.map2
         (fun (name, _) ((_, st, _) as p) ->
           [ name;
             Table.cell_f ~dec:1 (goodput p /. 1000.0);
             Table.cell_i st.dropped;
             Table.cell_i st.evicted;
             Table.cell_f ~dec:2 (e2e_ms p 0.99) ])
         variants
         (sweep ex
            (List.map
               (fun (_, surges) ->
                 traffic ~surges ~rate:(capacity *. 0.8) ~read_ratio:0. Session)
               variants)))
  in
  [ calibration; load_table; reads_table ]
  @ match ex.mode with Quick -> [] | Full -> [ flash_crowd () ]

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

(* The one place tables are printed: after the driver has run them
   all, followed by the footer. *)
let timed id driver ex =
  let t0 = Fl_prof.Clock.now_ns_int () in
  let stats0 = Settings.run_stats () in
  List.iter Table.print (driver ex);
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
