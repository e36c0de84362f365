(* The five benchmark workloads. Each one builds its simulations through
   the public harness/cluster APIs, runs them under a {!Meter}, and
   returns its deterministic results (simulated metrics and per-layer
   counts, by catalogue name) plus the correctness checks it ran. Host
   cost is the meter's business, not the workload's. *)

open Fl_sim
module Histogram = Fl_metrics.Histogram
module Recorder = Fl_metrics.Recorder
module Settings = Fl_harness.Settings
module Instance = Fl_fireledger.Instance

type outcome = {
  results : (string * float) list;
  checks : (string * bool) list;
}

let ms_of_ns = Fl_prof.Clock.ms_of_ns

(* Simulated durations shrink by this factor in smoke mode. *)
let dur ~smoke ms = Time.ms (if smoke then max 1 (ms / 10) else ms)

(* The latency the workload's users see, with its sample count. *)
let latency h =
  [ ("lat.p50_ms", ms_of_ns (Histogram.quantile h 0.50));
    ("lat.p99_ms", ms_of_ns (Histogram.quantile h 0.99));
    ("lat.samples", float_of_int (Histogram.count h)) ]

(* ---------- block latency tap ---------- *)

(* E − A of every block a node emits inside the measurement window,
   plus the Decomp phase sums. A block adopted through recovery (or
   catch-up) carries no proposal-time stamps: its A, B, C all equal its
   definite time D, so it is counted apart instead of being sampled as
   a zero-latency block. *)
module Tap = struct
  type t = {
    start : Time.t;
    stop : Time.t;
    lat : Histogram.t;
    mutable adopted : int;
    mutable dissemination : int;
    mutable quorum_wait : int;
    mutable finality_delay : int;
    mutable merge_wait : int;
  }

  let create ~start ~stop =
    { start;
      stop;
      lat = Histogram.create ();
      adopted = 0;
      dissemination = 0;
      quorum_wait = 0;
      finality_delay = 0;
      merge_wait = 0 }

  let note t (times : Instance.block_times) ~e =
    if e >= t.start && e < t.stop then
      if times.Instance.a = times.Instance.d then t.adopted <- t.adopted + 1
      else begin
        let c =
          Fl_obs.Decomp.of_times ~a:times.Instance.a ~b:times.Instance.b
            ~c:times.Instance.c ~d:times.Instance.d ~e
        in
        Histogram.record t.lat (Fl_obs.Decomp.total c);
        t.dissemination <- t.dissemination + c.Fl_obs.Decomp.dissemination;
        t.quorum_wait <- t.quorum_wait + c.Fl_obs.Decomp.quorum_wait;
        t.finality_delay <- t.finality_delay + c.Fl_obs.Decomp.finality_delay;
        t.merge_wait <- t.merge_wait + c.Fl_obs.Decomp.merge_wait
      end

  let latency t = latency t.lat

  let phases t =
    let k = Histogram.count t.lat in
    let mean sum = if k = 0 then 0. else ms_of_ns sum /. float_of_int k in
    [ ("fireledger.adopted_blocks", float_of_int t.adopted);
      ("fireledger.phase_dissemination_ms", mean t.dissemination);
      ("fireledger.phase_quorum_wait_ms", mean t.quorum_wait);
      ("fireledger.phase_finality_delay_ms", mean t.finality_delay);
      ("flo.merge_wait_ms", mean t.merge_wait) ]
end

(* ---------- per-layer counts shared by every workload ---------- *)

let ratio a b = if b = 0. then 0. else a /. b

let layer_counts ~recorder ~blocks ~msgs ~bytes =
  let c name = float_of_int (Recorder.counter recorder name) in
  let fast = c "obbc_fast_decisions" and slow = c "obbc_slow_paths" in
  [ ("crypto.signatures_per_block", ratio (c "signatures") blocks);
    ("crypto.verifications_per_block", ratio (c "verifications") blocks);
    ("net.msgs_per_block", ratio msgs blocks);
    ("net.bytes_per_block", ratio bytes blocks);
    ("net.decode_errors", c "decode_errors");
    ("consensus.obbc_fast_frac", ratio fast (fast +. slow));
    ("consensus.obbc_slow_paths", slow);
    ("consensus.bbc_rounds", c "bbc_rounds");
    ("fireledger.blocks_rescinded", c "blocks_rescinded") ]

let nic_bytes nics =
  float_of_int
    (Array.fold_left (fun acc nic -> acc + Fl_net.Nic.bytes_sent nic) 0 nics)

let no_decode_errors recorder =
  ("no decode errors", Recorder.counter recorder "decode_errors" = 0)

(* ---------- FLO cells: steady, wide, byzantine ---------- *)

type flo_cell = {
  cluster : Fl_flo.Cluster.t;
  result : Settings.result;
  tap : Tap.t;
}

let run_flo_cell m ~label ?(attach = fun _ -> ()) ?(on_deliver = fun ~node:_ _ -> ())
    (s : Settings.flo_setting) =
  let tap = Tap.create ~start:s.Settings.warmup ~stop:(s.Settings.warmup + s.Settings.duration) in
  let s =
    { s with
      Settings.on_deliver =
        Some
          (fun ~node (d : Fl_flo.Node.delivery) ->
            Tap.note tap d.Fl_flo.Node.times ~e:d.Fl_flo.Node.delivered_at;
            on_deliver ~node d) }
  in
  let cluster, result =
    Meter.simulate m ~label
      ~build:(fun () ->
        let c = Settings.build_flo s in
        attach c;
        c)
      ~engine:(fun c -> c.Fl_flo.Cluster.engine)
      ~run:(Settings.run_cluster s)
  in
  { cluster; result; tap }

(* Distinct blocks decided: the most advanced node's merged delivery
   count (every node delivers every worker's blocks). *)
let flo_blocks (c : Fl_flo.Cluster.t) =
  float_of_int
    (Array.fold_left
       (fun acc node -> max acc (Fl_flo.Node.delivered_blocks node))
       0 c.Fl_flo.Cluster.nodes)

let flo_layers cell =
  let c = cell.cluster and r = cell.result in
  let msgs =
    Array.fold_left
      (fun acc net -> acc + Fl_net.Net.messages_delivered net)
      0 c.Fl_flo.Cluster.nets
  in
  layer_counts ~recorder:c.Fl_flo.Cluster.recorder ~blocks:(flo_blocks c)
    ~msgs:(float_of_int msgs) ~bytes:(nic_bytes c.Fl_flo.Cluster.nics)
  @ [ ("sim.cpu_util", r.Settings.cpu_util);
      ("fireledger.recoveries_per_s", r.Settings.rps) ]

let flo_setting ~seed ~n ~workers ~tx_size ~warmup ~duration =
  { (Settings.flo ~n ~workers ~batch:100 ~tx_size) with
    Settings.seed;
    warmup;
    duration }

let full_load m ~label ?(byzantine = []) ~seed ~smoke ~n ~workers ~warmup_ms
    ~duration_ms () =
  let s =
    { (flo_setting ~seed ~n ~workers ~tx_size:512
         ~warmup:(dur ~smoke warmup_ms) ~duration:(dur ~smoke duration_ms))
      with
      Settings.faults = { Settings.no_faults with Settings.byzantine } }
  in
  let cell = run_flo_cell m ~label s in
  let recorder = cell.cluster.Fl_flo.Cluster.recorder in
  (* Honest nodes may hold evidence only against the equivocators. *)
  let no_false_accusation = ref true in
  Array.iteri
    (fun i workers ->
      if not (List.mem i byzantine) then
        Array.iter
          (fun w ->
            if not (List.for_all (fun j -> List.mem j byzantine) (Instance.accused w))
            then no_false_accusation := false)
          workers)
    cell.cluster.Fl_flo.Cluster.workers;
  { results =
      (("ktps", cell.result.Settings.tps /. 1000.) :: Tap.latency cell.tap)
      @ Tap.phases cell.tap @ flo_layers cell;
    checks =
      [ ("flo delivery agreement", Fl_flo.Cluster.delivery_agreement cell.cluster);
        ("transactions delivered", cell.result.Settings.tps > 0.);
        ("no false accusation", !no_false_accusation);
        no_decode_errors recorder ] }

(* The canonical Figure 7 cell. *)
let steady m ~seed ~smoke =
  full_load m ~label:"steady" ~seed ~smoke ~n:4 ~workers:2 ~warmup_ms:1000
    ~duration_ms:7000 ()

(* Many small votes: twice steady's event rate, where the engine loop
   and decode show. *)
let wide m ~seed ~smoke =
  full_load m ~label:"wide" ~seed ~smoke ~n:16 ~workers:1 ~warmup_ms:1000
    ~duration_ms:3000 ()

(* Mean of every result, conjunction of every check, over runs of one
   shape (same names in the same order). *)
let average = function
  | [] -> invalid_arg "Workloads.average"
  | o :: _ as os ->
      let k = float_of_int (List.length os) in
      { results =
          List.map
            (fun (name, _) ->
              (name, List.fold_left (fun acc o -> acc +. List.assoc name o.results) 0. os /. k))
            o.results;
        checks =
          List.map
            (fun (name, _) -> (name, List.for_all (fun o -> List.assoc name o.checks) os))
            o.checks }

(* The Figure 12 shape: the slow path, recovery and evidence. How often
   the equivocators force a recovery depends on the seed's audience
   splits, so one repetition averages six disjoint sub-seeds. Every
   block here is adopted through recovery, so it has no block-latency
   sample (lat.samples = 0). *)
let byzantine m ~seed ~smoke =
  let cell j =
    let o =
      full_load m ~label:(Printf.sprintf "byzantine sub-seed %d" j)
        ~byzantine:[ 1; 4 ] ~seed:((6 * seed) + j) ~smoke ~n:7 ~workers:1
        ~warmup_ms:1000 ~duration_ms:5000 ()
    in
    let recoveries = List.assoc "fireledger.recoveries_per_s" o.results in
    { o with checks = o.checks @ [ ("recoveries ran", recoveries > 0.) ] }
  in
  average (List.init 6 cell)

(* The no-network floor beside steady: the same cell at n = 1. *)
let solo m ~seed ~smoke =
  let s =
    flo_setting ~seed ~n:1 ~workers:2 ~tx_size:512 ~warmup:(dur ~smoke 1000)
      ~duration:(dur ~smoke 3000)
  in
  (run_flo_cell m ~label:"solo" s).result.Settings.tps /. 1000.

(* ---------- durable ---------- *)

let durable m ~seed ~smoke =
  let open Fl_fireledger in
  let n = 4 and victim = 1 in
  let warmup = dur ~smoke 500
  and crash_at = dur ~smoke 1000
  and restart_at = dur ~smoke 1500
  and total = dur ~smoke 3000 in
  let tap = Tap.create ~start:warmup ~stop:total in
  let target = ref max_int and recovered_at = ref None in
  let output i =
    { Instance.null_output with
      Instance.on_definite =
        (fun ~round _ ~times ->
          Tap.note tap times ~e:times.Instance.d;
          if i = victim && round >= !target && !recovered_at = None then
            recovered_at := Some times.Instance.d) }
  in
  let config =
    { (Config.default ~n) with Config.batch_size = 100; tx_size = 512 }
  in
  let build () =
    let c =
      Cluster.create ~seed ~persist:Fl_persist.Node.default_config ~output
        ~config ()
    in
    let engine = c.Cluster.engine in
    Recorder.set_window c.Cluster.recorder ~start:warmup ~stop:total;
    ignore
      (Engine.schedule engine ~delay:crash_at (fun () ->
           Meter.span m "crash node 1" (fun () -> Cluster.crash c victim)));
    ignore
      (Engine.schedule engine ~delay:restart_at (fun () ->
           (* the tip the crash cost the victim: the best definite
              prefix among the others at the restart instant *)
           target :=
             Array.fold_left max 0
               (Array.mapi
                  (fun i inst -> if i = victim then 0 else Instance.definite_upto inst)
                  c.Cluster.instances);
           Meter.span m "restart node 1" (fun () -> Cluster.restart c victim);
           if Instance.definite_upto c.Cluster.instances.(victim) >= !target then
             recovered_at := Some (Engine.now engine)));
    Cluster.start c;
    c
  in
  let c, () =
    Meter.simulate m ~label:"durable" ~build
      ~engine:(fun c -> c.Cluster.engine)
      ~run:(Cluster.run ~until:total)
  in
  let recorder = c.Cluster.recorder in
  let blocks =
    float_of_int
      (Array.fold_left
         (fun acc inst -> max acc (Instance.definite_upto inst + 1))
         0 c.Cluster.instances)
  in
  let stats =
    List.filter_map
      (fun i -> Option.map Fl_persist.Node.stats (Cluster.persist_node c i))
      (List.init n Fun.id)
  in
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 stats) in
  let victim_recovers =
    match Cluster.persist_node c victim with
    | Some p -> (Fl_persist.Node.stats p).Fl_persist.Node.s_recovers
    | None -> 0
  in
  let per_node_rate name = Recorder.rate_per_s recorder name /. float_of_int n in
  { results =
      (("ktps", per_node_rate "txs_definite" /. 1000.) :: Tap.latency tap)
      @ Tap.phases tap
      @ layer_counts ~recorder ~blocks
          ~msgs:(float_of_int (Fl_net.Net.messages_delivered c.Cluster.net))
          ~bytes:(nic_bytes c.Cluster.nics)
      @ [ ("sim.cpu_util",
           Array.fold_left
             (fun acc cpu -> acc +. Cpu.utilization cpu ~now:total)
             0. c.Cluster.cpus
           /. float_of_int n);
          ("fireledger.recoveries_per_s", per_node_rate "recoveries");
          ("persist.fsyncs_per_block", ratio (sum (fun s -> s.Fl_persist.Node.s_fsyncs)) blocks);
          ("persist.bytes_per_block", ratio (sum (fun s -> s.Fl_persist.Node.s_bytes)) blocks);
          ("persist.snapshots", sum (fun s -> s.Fl_persist.Node.s_snapshots));
          ("persist.replayed", sum (fun s -> s.Fl_persist.Node.s_replayed));
          ("persist.recover_ms",
           match !recovered_at with
           | Some at -> ms_of_ns (at - restart_at)
           | None -> 0.) ];
    checks =
      [ ("definite prefix agreement", Cluster.definite_prefix_agreement c);
        ("victim recovered from its WAL", victim_recovers = 1);
        ("victim caught up", !recovered_at <> None);
        ("transactions delivered", Recorder.windowed_count recorder "txs_definite" > 0);
        no_decode_errors recorder ] }

(* ---------- clients ---------- *)

(* One open-loop run: Fl_load.Source into node 0's fee-priority pool,
   blocks carrying client transactions only — the harness's traffic
   run (Experiments.run_traffic) with the window as a parameter. *)
let traffic m ~label ~seed ~rate_ktps ~warmup ~duration =
  let src_ref = ref None in
  let s =
    { (flo_setting ~seed ~n:4 ~workers:2 ~tx_size:128 ~warmup ~duration) with
      Settings.config_tweaks =
        (fun c ->
          { c with
            Fl_fireledger.Config.fill_blocks = false;
            mempool_capacity = 400 }) }
  in
  let on_deliver ~node (d : Fl_flo.Node.delivery) =
    match !src_ref with
    | Some src when node = 0 ->
        Fl_load.Source.note_block src d.Fl_flo.Node.block.Fl_chain.Block.txs
          ~a:d.Fl_flo.Node.times.Instance.a ~final:d.Fl_flo.Node.delivered_at
    | _ -> ()
  in
  let attach (c : Fl_flo.Cluster.t) =
    let cfg =
      { (Fl_load.Source.default_config
           ~arrivals:(Fl_load.Arrivals.create ~rate_per_s:(rate_ktps *. 1000.) ()))
        with
        Fl_load.Source.read_ratio = 0.5;
        consistency = Fl_load.Source.Session }
    in
    let src =
      Fl_load.Source.create c.Fl_flo.Cluster.engine
        ~rng:(Rng.create (seed + 7919))
        ~recorder:c.Fl_flo.Cluster.recorder
        ~sink:(fun tx ~fee ->
          Fl_flo.Node.submit_fee c.Fl_flo.Cluster.nodes.(0) tx ~fee)
        cfg
    in
    Array.iter
      (fun inst ->
        Fl_chain.Mempool.set_on_evict (Instance.mempool inst)
          (Some (fun tx ~fee -> Fl_load.Source.note_evicted src tx ~fee)))
      c.Fl_flo.Cluster.workers.(0);
    Fl_load.Source.start src;
    src_ref := Some src
  in
  let cell = run_flo_cell m ~label ~attach ~on_deliver s in
  let src = Option.get !src_ref in
  Fl_load.Source.stop src;
  (cell, Fl_load.Source.stats src)

let histo cell name =
  match Recorder.histogram cell.cluster.Fl_flo.Cluster.recorder name with
  | Some h -> h
  | None -> Histogram.create ()

(* The client-visible limit behind the capacity search. *)
let slo_p99_ms = 50.

let clients m ~seed ~smoke =
  let cell, st =
    Meter.span m "fixed rate 20 ktps" (fun () ->
        traffic m ~label:"clients 20 ktps" ~seed ~rate_ktps:20.
          ~warmup:(dur ~smoke 500) ~duration:(dur ~smoke 4000))
  in
  let e2e = histo cell "latency_client_e2e" in
  let q h p = ms_of_ns (Histogram.quantile h p) in
  let secs = Time.to_float_s (dur ~smoke 4500) in
  let open Fl_load.Source in
  let pools = Array.map Instance.mempool cell.cluster.Fl_flo.Cluster.workers.(0) in
  let pool_sum f = float_of_int (Array.fold_left (fun acc p -> acc + f p) 0 pools) in
  (* Bisect the offered rate over [0, 40] ktps: a probe passes when
     client p99 stays within the limit and nothing is dropped or
     evicted. *)
  let passes rate_ktps =
    Meter.span m (Printf.sprintf "probe %.3f ktps" rate_ktps) (fun () ->
        let cell, st =
          traffic m ~label:"clients probe" ~seed ~rate_ktps
            ~warmup:(dur ~smoke 500) ~duration:(dur ~smoke 2000)
        in
        st.dropped = 0 && st.evicted = 0
        && q (histo cell "latency_client_e2e") 0.99 <= slo_p99_ms)
  in
  let resolution = if smoke then 10. else 0.5 in
  let rec bisect lo hi =
    if hi -. lo <= resolution then lo
    else
      let mid = (lo +. hi) /. 2. in
      if passes mid then bisect mid hi else bisect lo mid
  in
  let max_rate = bisect 0. 40. in
  let telescopes =
    Histogram.sum (histo cell "phase_admission_wait")
    + Histogram.sum (histo cell "client_consensus")
    = Histogram.sum e2e
  in
  let conserved =
    st.generated = st.finalized + st.dropped + st.evicted + st.pending + st.retrying
  in
  { results =
      (("ktps", max_rate) :: latency e2e)
      @ [ ("load.goodput_ktps", float_of_int st.finalized /. secs /. 1000.);
        ("load.client_failed_frac",
         ratio (float_of_int (st.dropped + st.evicted)) (float_of_int st.generated));
        ("load.admission_wait_p50_ms", q (histo cell "phase_admission_wait") 0.50);
        ("load.client_consensus_p50_ms", q (histo cell "client_consensus") 0.50);
        ("load.retried_txs", float_of_int st.retried_txs);
        ("load.read_stale_frac",
         ratio (float_of_int st.reads_stale) (float_of_int st.reads));
        ("chain.mempool_evicted", pool_sum Fl_chain.Mempool.evicted_total);
        ("chain.mempool_backpressured", pool_sum Fl_chain.Mempool.backpressured_total) ]
      @ Tap.phases cell.tap @ flo_layers cell;
    checks =
      [ ("flo delivery agreement", Fl_flo.Cluster.delivery_agreement cell.cluster);
        ("source conservation", conserved);
        ("client decomposition telescopes", telescopes);
        ("client transactions finalized", st.finalized > 0);
        ("capacity search found a passing rate", max_rate > 0.);
        no_decode_errors cell.cluster.Fl_flo.Cluster.recorder ] }

let all =
  [ ("steady", steady);
    ("wide", wide);
    ("durable", durable);
    ("byzantine", byzantine);
    ("clients", clients) ]
