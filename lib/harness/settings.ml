open Fl_sim

type machine = {
  cores : int;
  cost : Fl_crypto.Cost_model.t;
  bandwidth_bps : float;
}

let m5_xlarge =
  { cores = 4;
    cost = Fl_crypto.Cost_model.default;
    bandwidth_bps = Fl_net.Nic.ten_gbps }

let c5_4xlarge =
  { cores = 16;
    cost = Fl_crypto.Cost_model.c5_4xlarge;
    bandwidth_bps = Fl_net.Nic.ten_gbps }

type net_profile = Single_dc | Geo

type faults = {
  crash_at : (Time.t * int list) option;
  byzantine : int list;
  loss : (int * float) option;
  partition : (Time.t * int list list * Time.t) option;
}

let no_faults =
  { crash_at = None; byzantine = []; loss = None; partition = None }

type flo_setting = {
  n : int;
  f : int option;
  workers : int;
  batch : int;
  tx_size : int;
  net : net_profile;
  machine : machine;
  seed : int;
  warmup : Time.t;
  duration : Time.t;
  faults : faults;
  config_tweaks : Fl_fireledger.Config.t -> Fl_fireledger.Config.t;
  obs : Fl_obs.Obs.t option;
  persist : Fl_persist.Node.config option;
  on_deliver : (node:int -> Fl_flo.Node.delivery -> unit) option;
}

(* "never" | "group_commit" | "group_commit:5ms" | "every_block",
   optionally prefixed by a disk profile: "ssd/group_commit". *)
let persist_of_string s =
  let profile, policy =
    match String.index_opt s '/' with
    | Some i -> (
        let p = String.sub s 0 i in
        match Fl_persist.Disk.profile_of_string p with
        | Some profile ->
            (profile, String.sub s (i + 1) (String.length s - i - 1))
        | None -> invalid_arg (Printf.sprintf "persist_of_string: disk %S" p))
    | None -> (Fl_persist.Disk.nvme, s)
  in
  let sync =
    match String.split_on_char ':' policy with
    | [ "never" ] -> Fl_persist.Node.Never
    | [ "group_commit" ] -> Fl_persist.Node.Group_commit (Time.ms 2)
    | [ "group_commit"; iv ] -> (
        let digits =
          if String.ends_with ~suffix:"ms" iv then
            String.sub iv 0 (String.length iv - 2)
          else iv
        in
        match int_of_string_opt digits with
        | Some ms when ms > 0 -> Fl_persist.Node.Group_commit (Time.ms ms)
        | _ -> invalid_arg (Printf.sprintf "persist_of_string: %S" s))
    | [ "every_block" ] -> Fl_persist.Node.Every_block
    | _ -> invalid_arg (Printf.sprintf "persist_of_string: %S" s)
  in
  { Fl_persist.Node.default_config with Fl_persist.Node.profile; sync }

let flo ~n ~workers ~batch ~tx_size =
  { n;
    f = None;
    workers;
    batch;
    tx_size;
    net = Single_dc;
    machine = m5_xlarge;
    seed = 42;
    warmup = Time.s 1;
    duration = Time.s 4;
    faults = no_faults;
    config_tweaks = Fun.id;
    obs = None;
    persist = None;
    on_deliver = None }

type result = {
  tps : float;
  bps : float;
  lat_mean_ms : float;
  lat_p50_ms : float;
  lat_p90_ms : float;
  lat_p99_ms : float;
  lat_trimmed_ms : float;
  rps : float;
  ev_ab_ms : float;
  ev_bc_ms : float;
  ev_cd_ms : float;
  ev_de_ms : float;
  cpu_util : float;
  messages : int;
  recorder : Fl_metrics.Recorder.t;
}

(* ---------- sim-rate accounting ----------

   Every driver below funnels its simulation through [account], which
   adds the run's host wall time (monotonic clock), simulated-time
   advance and executed event count to a process-wide accumulator.
   [Experiments] reads deltas of this to print a per-experiment
   sim-rate (simulated-ms per host-ms, events/s) line; [fl_trace prof]
   reads it for the self-profile header. *)

type run_stats = {
  rs_host_ns : int;
  rs_sim_ns : int;
  rs_events : int;
  rs_runs : int;
}

(* Kept as independent atomic counters, not a record behind a ref:
   [account] runs concurrently on sweep domains ({!Fl_sim.Par}), and a
   read-modify-write of a shared record would silently drop counts. *)
let acc_host_ns = Atomic.make 0
let acc_sim_ns = Atomic.make 0
let acc_events = Atomic.make 0
let acc_runs = Atomic.make 0

let run_stats () =
  { rs_host_ns = Atomic.get acc_host_ns;
    rs_sim_ns = Atomic.get acc_sim_ns;
    rs_events = Atomic.get acc_events;
    rs_runs = Atomic.get acc_runs }

let reset_run_stats () =
  Atomic.set acc_host_ns 0;
  Atomic.set acc_sim_ns 0;
  Atomic.set acc_events 0;
  Atomic.set acc_runs 0

let account ~engine f =
  let t0 = Fl_prof.Clock.now_ns_int () in
  let sim0 = Engine.now engine and ev0 = Engine.processed engine in
  let r = f () in
  ignore
    (Atomic.fetch_and_add acc_host_ns (Fl_prof.Clock.now_ns_int () - t0));
  ignore (Atomic.fetch_and_add acc_sim_ns (Engine.now engine - sim0));
  ignore (Atomic.fetch_and_add acc_events (Engine.processed engine - ev0));
  ignore (Atomic.fetch_and_add acc_runs 1);
  r

let sim_rate_line delta =
  if delta.rs_host_ns <= 0 then None
  else
    let host_ms = float_of_int delta.rs_host_ns /. 1e6 in
    Some
      (Printf.sprintf
         "sim-rate %.2f sim-ms/host-ms, %.2fM events/s over %d runs"
         (float_of_int delta.rs_sim_ns /. float_of_int delta.rs_host_ns)
         (float_of_int delta.rs_events /. host_ms /. 1e3)
         delta.rs_runs)

let latency_of ~net ~n =
  match net with
  | Single_dc -> Fl_net.Latency.single_dc
  | Geo -> Fl_workload.Regions.latency ~n ()

let histo_mean_ms recorder name =
  match Fl_metrics.Recorder.histogram recorder name with
  | Some h -> Fl_metrics.Histogram.mean h /. 1e6
  | None -> 0.0

let histo_q_ms recorder name q =
  match Fl_metrics.Recorder.histogram recorder name with
  | Some h -> float_of_int (Fl_metrics.Histogram.quantile h q) /. 1e6
  | None -> 0.0

let distil ~n ~recorder ~cpus ~nets ~engine =
  let per_node rate = rate /. float_of_int n in
  let messages =
    Array.fold_left
      (fun acc net -> acc + Fl_net.Net.messages_delivered net)
      0 nets
  in
  let util =
    let now = Engine.now engine in
    if Array.length cpus = 0 then 0.0
    else
      Array.fold_left
        (fun acc cpu -> acc +. Fl_sim.Cpu.utilization cpu ~now)
        0.0 cpus
      /. float_of_int (Array.length cpus)
  in
  let trimmed =
    match Fl_metrics.Recorder.histogram recorder "latency_e2e" with
    | Some h -> Fl_metrics.Histogram.trimmed_mean h ~drop_top:0.05 /. 1e6
    | None -> 0.0
  in
  { tps = per_node (Fl_metrics.Recorder.rate_per_s recorder "txs_delivered");
    bps = per_node (Fl_metrics.Recorder.rate_per_s recorder "blocks_delivered");
    lat_mean_ms = histo_mean_ms recorder "latency_e2e";
    lat_p50_ms = histo_q_ms recorder "latency_e2e" 0.50;
    lat_p90_ms = histo_q_ms recorder "latency_e2e" 0.90;
    lat_p99_ms = histo_q_ms recorder "latency_e2e" 0.99;
    lat_trimmed_ms = trimmed;
    rps = per_node (Fl_metrics.Recorder.rate_per_s recorder "recoveries");
    ev_ab_ms = histo_mean_ms recorder "ev_ab";
    ev_bc_ms = histo_mean_ms recorder "ev_bc";
    ev_cd_ms = histo_mean_ms recorder "ev_cd";
    ev_de_ms = histo_mean_ms recorder "ev_de";
    cpu_util = util;
    messages;
    recorder }

let build_flo s =
  let f = match s.f with Some f -> f | None -> (s.n - 1) / 3 in
  (* The WRB timer's lower bound must cover a full-push delivery: NIC
     serialisation plus hashing of one whole block body — otherwise the
     EMA, trained on near-zero piggyback readiness, causes spurious
     timeouts whenever a block arrives by direct push. *)
  let body_bytes = s.batch * s.tx_size in
  let floor_timeout =
    Time.ms 5
    + (3 * Fl_crypto.Cost_model.hash_cost s.machine.cost ~bytes:body_bytes)
    + int_of_float
        (3.0 *. 8.0 *. float_of_int (body_bytes * (s.n - 1))
        /. s.machine.bandwidth_bps *. 1e9)
  in
  let config =
    s.config_tweaks
      { (Fl_fireledger.Config.default ~n:s.n) with
        Fl_fireledger.Config.f;
        batch_size = s.batch;
        tx_size = s.tx_size;
        min_timeout = floor_timeout }
  in
  let behavior i =
    if List.mem i s.faults.byzantine then Fl_fireledger.Instance.Equivocator
    else Fl_fireledger.Instance.Honest
  in
  let cluster =
    Fl_flo.Cluster.create ~seed:s.seed
      ~latency:(latency_of ~net:s.net ~n:s.n)
      ~cost:s.machine.cost ~cores:s.machine.cores
      ~bandwidth_bps:s.machine.bandwidth_bps ~behavior ~config
      ?obs:s.obs ?persist:s.persist ?on_deliver:s.on_deliver
      ~workers:s.workers ()
  in
  Fl_metrics.Recorder.set_window cluster.Fl_flo.Cluster.recorder
    ~start:s.warmup ~stop:(s.warmup + s.duration);
  (* omission-failure injection: probabilistic outbound loss, in the
     nets' own loss layer so that it composes with a crash's filter *)
  (match s.faults.loss with
  | None -> ()
  | Some (victim, prob) ->
      Array.iter
        (fun net -> Fl_net.Net.set_loss net ~node:victim prob)
        cluster.Fl_flo.Cluster.nets);
  (match s.faults.crash_at with
  | None -> ()
  | Some (at, nodes) ->
      ignore
        (Engine.schedule cluster.Fl_flo.Cluster.engine ~delay:at (fun () ->
             List.iter (Fl_flo.Cluster.crash cluster) nodes)));
  (* scheduled partition with heal time, on every worker net *)
  (match s.faults.partition with
  | None -> ()
  | Some (at, groups, heal) ->
      let engine = cluster.Fl_flo.Cluster.engine in
      ignore
        (Engine.schedule engine ~delay:at (fun () ->
             Array.iter
               (fun net -> Fl_net.Net.set_partition net groups)
               cluster.Fl_flo.Cluster.nets));
      ignore
        (Engine.schedule engine ~delay:heal (fun () ->
             Array.iter Fl_net.Net.heal cluster.Fl_flo.Cluster.nets)));
  cluster

let run_cluster s cluster =
  account ~engine:cluster.Fl_flo.Cluster.engine (fun () ->
      Fl_flo.Cluster.start cluster;
      Fl_flo.Cluster.run ~until:(s.warmup + s.duration) cluster);
  let r =
    distil ~n:s.n ~recorder:cluster.Fl_flo.Cluster.recorder
      ~cpus:cluster.Fl_flo.Cluster.cpus ~nets:cluster.Fl_flo.Cluster.nets
      ~engine:cluster.Fl_flo.Cluster.engine
  in
  (* Per-run rollup on the cluster-wide track: the measurement window
     with its headline numbers, so an exported trace is
     self-describing. *)
  Fl_obs.Obs.span s.obs ~cat:"harness" ~name:"measurement_window"
    ~args:
      [ ("n", string_of_int s.n);
        ("workers", string_of_int s.workers);
        ("batch", string_of_int s.batch);
        ("tx_size", string_of_int s.tx_size);
        ("seed", string_of_int s.seed);
        ("tps", Printf.sprintf "%.0f" r.tps);
        ("lat_p50_ms", Printf.sprintf "%.2f" r.lat_p50_ms) ]
    ~t_begin:s.warmup ~t_end:(s.warmup + s.duration) ();
  r

let run_flo s = run_cluster s (build_flo s)

let latency_cdf s ~points =
  let r = run_flo s in
  match Fl_metrics.Recorder.histogram r.recorder "latency_e2e" with
  | None -> []
  | Some h ->
      List.map
        (fun (v, q) -> (float_of_int v /. 1e6, q))
        (Fl_metrics.Histogram.cdf h ~points)

type baseline_setting = {
  b_n : int;
  b_f : int;
  b_batch : int;
  b_tx_size : int;
}

let baseline ~n ~f ~batch ~tx_size =
  { b_n = n; b_f = f; b_batch = batch; b_tx_size = tx_size }

(* Both rivals run on the c5.4xlarge profile in one data centre, with
   the default seed, 1 s of warm-up and 4 s of measurement. [create]
   builds the rival and returns its engine, its recorder and how to
   run it to a given time. *)
let run_baseline s create =
  let m = c5_4xlarge and warmup = Time.s 1 and stop = Time.s 5 in
  let engine, recorder, run =
    create ~cost:m.cost ~cores:m.cores ~bandwidth_bps:m.bandwidth_bps
      ~n:s.b_n ~f:s.b_f ~batch_size:s.b_batch ~tx_size:s.b_tx_size
  in
  Fl_metrics.Recorder.set_window recorder ~start:warmup ~stop;
  account ~engine (fun () -> run stop);
  distil ~n:s.b_n ~recorder ~cpus:[||] ~nets:[||] ~engine

let run_hotstuff s =
  run_baseline s (fun ~cost ~cores ~bandwidth_bps ~n ~f ~batch_size ~tx_size ->
      let open Fl_baselines.Hotstuff in
      let c =
        create ~cost ~cores ~bandwidth_bps ~n ~f ~batch_size ~tx_size ()
      in
      (c.engine, c.recorder, fun until -> start c; run ~until c))

let run_pbft s =
  run_baseline s (fun ~cost ~cores ~bandwidth_bps ~n ~f ~batch_size ~tx_size ->
      let open Fl_baselines.Pbft_cluster in
      let c =
        create ~cost ~cores ~bandwidth_bps ~n ~f ~batch_size ~tx_size ()
      in
      (c.engine, c.recorder, fun until -> start c; run ~until c))
