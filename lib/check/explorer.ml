open Fl_sim
open Fl_fireledger

type report = {
  plan : Plan.t;
  budget_ms : int;
  violations : Oracle.violation list;
  total_violations : int;
  min_definite : int;
  max_round : int;
  recoveries : int;
  corrupted : int;
  decode_errors : int;
  accused : int list;
  evidence_count : int;
  epochs : int;  (* successor epochs the canonical schedule reached *)
  transfers : int;  (* completed state transfers, cluster-wide *)
  events : int;
  truncated : bool;
  traffic : Fl_load.Source.stats option;
}

let failed r = r.total_violations > 0

(* Same quick profile as the fuzz suite: small blocks and a tight
   initial timeout so hundreds of rounds fit in a couple of simulated
   seconds. *)
let base_config ~n ~f =
  { (Config.default ~n) with
    Config.f;
    batch_size = 10;
    tx_size = 32;
    initial_timeout = Time.ms 20 }

let min_rounds_for ~budget_ms = max 2 (budget_ms / 600)

(* The planted safety bug for oracle self-tests: present node 0's
   definite stream to the oracle with every block from round 3 on
   replaced by a fork (same ancestry, different proposer, hence a
   different hash). *)
let forked_output n inner =
  { inner with
    Instance.on_definite =
      (fun ~round block ~times ->
        let block =
          if round < 3 then block
          else
            let h = block.Fl_chain.Block.header in
            { block with
              Fl_chain.Block.header =
                Fl_chain.Header.make ~round:h.round
                  ~proposer:((h.proposer + 1) mod n)
                  ~prev_hash:h.prev_hash ~body_hash:h.body_hash
                  ~tx_count:h.tx_count ~body_size:h.body_size }
        in
        inner.Instance.on_definite ~round block ~times) }

(* Per-node KV state machine driven from the definite stream: one
   deterministic [Put] per definite block (key folded into a small
   space so snapshots carry real overwrite history, value = block
   hash). Convergence of the resulting state hashes across nodes —
   including recovered ones — is the end-of-run application oracle. *)
let kv_app kv =
  { Fl_persist.Recovery.app_apply =
      (fun block ->
        let r = block.Fl_chain.Block.header.Fl_chain.Header.round in
        ignore
          (Fl_app.Kv.apply !kv
             (Fl_app.Command.Put
                { key = Printf.sprintf "r%d" (r mod 97);
                  value = Fl_chain.Block.hash block })));
    app_snapshot = (fun () -> Fl_app.Kv.snapshot !kv);
    app_restore =
      (fun s ->
        match Fl_app.Kv.restore s with
        | Ok kv' ->
            kv := kv';
            true
        | Error _ -> false);
    app_reset = (fun () -> kv := Fl_app.Kv.create ());
    app_hash = (fun () -> Fl_app.Kv.state_hash !kv) }

let run_plan ?(inject_fork = false) ?obs ?persist ~budget_ms (plan : Plan.t) =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Explorer.run_plan: %s" e));
  (* [--inject-fork] doubles as the accountability drill: force a real
     equivocator into the plan (when the process-fault budget allows)
     so a genuine fork can materialise, and demand at the end that the
     collected evidence names the Byzantine set exactly. *)
  let plan =
    if inject_fork && Plan.byzantine plan = [] then begin
      let rec pick i =
        if i < 0 then None
        else if List.mem i (Plan.faulty plan) then pick (i - 1)
        else
          let candidate =
            { plan with
              Plan.faults = Plan.Equivocate { node = i } :: plan.Plan.faults }
          in
          match Plan.validate candidate with
          | Ok () -> Some candidate
          | Error _ -> None
      in
      match pick (plan.Plan.n - 1) with Some p -> p | None -> plan
    end
    else plan
  in
  (* disk faults need a durability layer under every node; so do
     reconfiguration plans — rolling restarts recover from media, and
     joiners persist their adopted snapshot prefix *)
  let persist =
    match persist with
    | Some _ as p -> p
    | None ->
        if Plan.has_disk_faults plan || Plan.has_reconfig_faults plan then
          Some Fl_persist.Node.default_config
        else None
  in
  (* joiners are outside the genesis membership: they boot as
     observers and enter through their decided [Join] *)
  let joiners = Plan.joiners plan in
  let members =
    if joiners = [] then None
    else
      Some
        (List.filter
           (fun i -> not (List.mem i joiners))
           (List.init plan.Plan.n Fun.id))
  in
  let kvs =
    Array.init plan.Plan.n (fun _ -> ref (Fl_app.Kv.create ()))
  in
  let persist_app i =
    match persist with None -> None | Some _ -> Some (kv_app kvs.(i))
  in
  let surge = Plan.has_surge_faults plan in
  let config = base_config ~n:plan.Plan.n ~f:plan.Plan.f in
  (* surge plans get a deliberately small pool so the flash crowd
     actually exercises backpressure and fee-priority eviction *)
  let config =
    if surge then { config with Config.mempool_capacity = 64 } else config
  in
  (* The traffic source targets one correct node that stays in the
     membership (and not the one whose output [--inject-fork]
     deliberately forks). *)
  let target =
    let avoid = Plan.faulty plan @ joiners @ Plan.leavers plan in
    let rec pick i =
      if i >= plan.Plan.n then 0
      else if (not (List.mem i avoid)) && not (inject_fork && i = 0) then i
      else pick (i + 1)
    in
    pick 0
  in
  (* The oracle is built before the cluster (whose engine provides the
     clock), so give it an indirected [now]; nothing fires before the
     run starts. The traffic source has the same chicken-and-egg shape:
     the target's output closure consults [src_ref], filled after the
     cluster (and hence the engine) exists. *)
  let clock = ref (fun () -> 0) in
  let src_ref = ref None in
  let oracle =
    Oracle.create ?members
      ~now:(fun () -> !clock ())
      ~n:plan.Plan.n ~f:plan.Plan.f ()
  in
  let traffic_output inner =
    { inner with
      Instance.on_definite =
        (fun ~round block ~times ->
          (match !src_ref with
          | Some src ->
              Fl_load.Source.note_block src block.Fl_chain.Block.txs
                ~a:times.Instance.a ~final:times.Instance.d
          | None -> ());
          inner.Instance.on_definite ~round block ~times) }
  in
  let cluster =
    Cluster.create ~seed:plan.Plan.seed ?obs
      ~bandwidth_of:(Plan.bandwidth_of plan)
      ~behavior:(Plan.behavior plan)
      ~config_of:(Plan.config_of plan)
      ~output:(fun i ->
        let out = Oracle.output_for oracle i in
        let out =
          if inject_fork && i = 0 then forked_output plan.Plan.n out else out
        in
        if surge && i = target then traffic_output out else out)
      ?persist ~persist_app ?members ~config ()
  in
  clock := (fun () -> Engine.now cluster.Cluster.engine);
  if surge then begin
    let surges =
      List.map
        (fun (factor, from_ms, to_ms) ->
          { Fl_load.Arrivals.from_ = Time.ms from_ms;
            until = Time.ms to_ms;
            factor })
        (Plan.surge_windows plan)
    in
    let arrivals = Fl_load.Arrivals.create ~rate_per_s:400.0 ~surges () in
    let cfg =
      { (Fl_load.Source.default_config ~arrivals) with
        Fl_load.Source.tx_size = config.Config.tx_size;
        accounts = 10_000;
        fee_levels = 8;
        max_retries = 3;
        retry_backoff = Time.ms 10 }
    in
    (* resolve the target's pool at call time: a cold restart replaces
       the instance (and its mempool) in place *)
    let pool () = Instance.mempool cluster.Cluster.instances.(target) in
    let src =
      Fl_load.Source.create cluster.Cluster.engine
        ~rng:(Rng.named_split (Rng.create plan.Plan.seed) "traffic")
        ~recorder:cluster.Cluster.recorder
        ~sink:(fun tx ~fee -> Fl_chain.Mempool.admit (pool ()) tx ~fee)
        cfg
    in
    src_ref := Some src;
    Fl_chain.Mempool.set_on_evict (pool ())
      (Some (fun tx ~fee -> Fl_load.Source.note_evicted src tx ~fee));
    Fl_load.Source.start src
  end;
  Oracle.attach_stores oracle
    (Array.map Instance.store cluster.Cluster.instances);
  Cluster.set_on_restart cluster (fun i ->
      (* the rebuilt instance has a fresh store and will re-emit its
         recovered definite prefix *)
      Oracle.note_restart oracle i;
      Oracle.attach_stores oracle
        (Array.map Instance.store cluster.Cluster.instances);
      (* the fresh mempool needs the eviction hook re-installed *)
      if i = target then
        match !src_ref with
        | Some src ->
            Fl_chain.Mempool.set_on_evict
              (Instance.mempool cluster.Cluster.instances.(target))
              (Some (fun tx ~fee -> Fl_load.Source.note_evicted src tx ~fee))
        | None -> ());
  Plan.apply plan ~engine:cluster.Cluster.engine ~cluster;
  Cluster.start cluster;
  let until = Time.ms budget_ms in
  let max_events = max 1_000_000 (budget_ms * 2_000) in
  Engine.run ~until ~max_events cluster.Cluster.engine;
  let truncated = Engine.now cluster.Cluster.engine < until in
  let faulty = Plan.faulty plan in
  (* A rolling restart cold-restarts every node, and a restarted node
     may legitimately double-sign across incarnations (its
     no-double-sign archive is volatile) — excuse all nodes from the
     false-accusation check, exactly like plan-crashed ones, while
     still holding them to the liveness bound (rolled nodes never
     enter [Plan.faulty], so the f budget is untouched). *)
  let excused =
    if Plan.has_rolling plan then List.init plan.Plan.n Fun.id else []
  in
  let expect_accused =
    if inject_fork then Some (Plan.byzantine plan) else None
  in
  Oracle.finish ?expect_accused ~departed:(Plan.leavers plan) ~excused oracle
    ~cluster ~faulty
    ~expect_progress:(Plan.expect_liveness plan && not truncated)
    ~min_rounds:(min_rounds_for ~budget_ms);
  (* Application oracle: each surviving node's live KV state must
     equal a from-scratch fold over its own definite prefix — a
     recovery that double-applied, skipped or mis-restored blocks
     shows up here even when the chains agree. *)
  (match persist with
  | None -> ()
  | Some _ ->
      List.iter
        (fun i ->
          if not (Hashtbl.mem cluster.Cluster.crashed i) then begin
            let inst = cluster.Cluster.instances.(i) in
            let fresh = ref (Fl_app.Kv.create ()) in
            let app = kv_app fresh in
            let store = Instance.store inst in
            for r = 0 to Instance.definite_upto inst do
              match Fl_chain.Store.get store r with
              | Some b -> app.Fl_persist.Recovery.app_apply b
              | None -> ()
            done;
            Oracle.check_app_state oracle ~node:i
              ~live:(Fl_app.Kv.state_hash !(kvs.(i)))
              ~replayed:(app.Fl_persist.Recovery.app_hash ())
          end)
        (List.init plan.Plan.n Fun.id));
  (* Traffic conservation: every transaction the target admitted must
     be finalized, explicitly evicted (both already settled inside the
     source), still in the pool, or riding an in-flight proposal the
     node tracks for recovery re-admission. Anything else is a silent
     drop. *)
  let traffic =
    match !src_ref with
    | None -> None
    | Some src ->
        Fl_load.Source.stop src;
        (* A leaving target hands its pending transactions to a
           surviving member, so scan every live node's pool and
           in-flight proposals, not just the target's. Skipped under a
           rolling restart: a cold restart legitimately loses the
           volatile pool (real clients re-submit). *)
        if not (Plan.has_rolling plan) then begin
          let present = Hashtbl.create 256 in
          Array.iteri
            (fun i inst ->
              if not (Hashtbl.mem cluster.Cluster.crashed i) then begin
                Fl_chain.Mempool.iter (Instance.mempool inst) (fun tx ~fee:_ ->
                    Hashtbl.replace present tx.Fl_chain.Tx.id ());
                List.iter
                  (fun ((tx : Fl_chain.Tx.t), _fee) ->
                    Hashtbl.replace present tx.Fl_chain.Tx.id ())
                  (Instance.inflight_client_txs inst)
              end)
            cluster.Cluster.instances;
          let pending = Fl_load.Source.pending_ids src in
          let missing =
            List.length
              (List.filter (fun id -> not (Hashtbl.mem present id)) pending)
          in
          Oracle.check_no_silent_drop oracle ~node:target ~missing
            ~pending:(List.length pending)
        end;
        Some (Fl_load.Source.stats src)
  in
  let correct =
    List.filter
      (fun i -> not (List.mem i (faulty @ Plan.leavers plan)))
      (List.init plan.Plan.n Fun.id)
  in
  let min_definite =
    List.fold_left
      (fun acc i ->
        min acc (Instance.definite_upto cluster.Cluster.instances.(i)))
      max_int correct
  in
  let max_round =
    Array.fold_left
      (fun acc inst -> max acc (Instance.round inst))
      0 cluster.Cluster.instances
  in
  { plan;
    budget_ms;
    violations = Oracle.violations oracle;
    total_violations = Oracle.total oracle;
    min_definite = (if min_definite = max_int then 0 else min_definite);
    max_round;
    recoveries =
      Fl_metrics.Recorder.counter cluster.Cluster.recorder "recoveries";
    corrupted = Fl_net.Net.messages_corrupted cluster.Cluster.net;
    decode_errors =
      Fl_metrics.Recorder.counter cluster.Cluster.recorder "decode_errors";
    accused = Oracle.accused oracle;
    evidence_count = Oracle.evidence_count oracle;
    epochs = Oracle.epoch_count oracle;
    transfers = Oracle.transfer_count oracle;
    events = Engine.processed cluster.Cluster.engine;
    truncated;
    traffic }

let run_seed ?inject_fork ?with_disk_faults ?with_corrupt_faults
    ?with_surge_faults ?with_reconfig_faults ?persist ?n ~budget_ms seed =
  run_plan ?inject_fork ?persist ~budget_ms
    (Plan.generate ?with_disk_faults ?with_corrupt_faults ?with_surge_faults
       ?with_reconfig_faults ?n ~seed ~budget_ms ())

type summary = {
  seeds : int;
  base_seed : int;
  reports : report list;
  failures : report list;
  total_events : int;
}

let explore ?inject_fork ?with_disk_faults ?with_corrupt_faults
    ?with_surge_faults ?with_reconfig_faults ?persist ?n ?(jobs = 1) ~seeds
    ~base_seed ~budget_ms () =
  (* Each seed is a self-contained simulation (own engine, cluster,
     RNG stream; no mutable globals on the run path), so the sweep
     shards across domains and merges by seed index: reports, failures
     and the fingerprint are byte-identical for any [jobs]. *)
  let reports =
    Array.to_list
      (Fl_sim.Par.map ~jobs seeds (fun k ->
           run_seed ?inject_fork ?with_disk_faults ?with_corrupt_faults
             ?with_surge_faults ?with_reconfig_faults ?persist ?n ~budget_ms
             (base_seed + k)))
  in
  { seeds;
    base_seed;
    reports;
    failures = List.filter failed reports;
    total_events = List.fold_left (fun acc r -> acc + r.events) 0 reports }

let fingerprint summary =
  let fnv h s =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 1099511628211L)
      h s
  in
  let h =
    List.fold_left
      (fun h r ->
        let h =
          fnv h
            (Printf.sprintf "%s|%d|%d|%d|%d|%b|%s|%d|%d|%d\n"
               (Plan.to_string r.plan) r.total_violations r.min_definite
               r.max_round r.events r.truncated
               (String.concat "," (List.map string_of_int r.accused))
               r.evidence_count r.epochs r.transfers)
        in
        let h =
          match r.traffic with
          | None -> h
          | Some s ->
              fnv h
                (Printf.sprintf "traffic|%d|%d|%d|%d|%d|%d\n"
                   s.Fl_load.Source.generated s.Fl_load.Source.admitted
                   s.Fl_load.Source.finalized s.Fl_load.Source.dropped
                   s.Fl_load.Source.evicted s.Fl_load.Source.backpressured)
        in
        List.fold_left
          (fun h (v : Oracle.violation) ->
            fnv h
              (Printf.sprintf "%s|%d|%d|%d|%s\n" v.Oracle.oracle v.Oracle.at
                 v.Oracle.node v.Oracle.round v.Oracle.detail))
          h r.violations)
      0xcbf29ce484222325L summary.reports
  in
  Printf.sprintf "%016Lx" h

(* ---------- shrinking ---------- *)

(* Candidate simplifications of a single fault, simplest first. *)
let weaken (fault : Plan.fault) : Plan.fault list =
  match fault with
  | Plan.Crash { node; at_ms; restart_ms = Some _ } ->
      [ Plan.Crash { node; at_ms; restart_ms = None } ]
  | Plan.Crash _ -> []
  | Plan.Partition { groups; at_ms; heal_ms } ->
      if heal_ms - at_ms > 100 then
        [ Plan.Partition { groups; at_ms; heal_ms = at_ms + ((heal_ms - at_ms) / 2) } ]
      else []
  | Plan.Loss { node; prob; from_ms; to_ms } ->
      (if to_ms - from_ms > 100 then
         [ Plan.Loss { node; prob; from_ms; to_ms = from_ms + ((to_ms - from_ms) / 2) } ]
       else [])
      @
      if prob > 0.1 then
        [ Plan.Loss { node; prob = prob /. 2.0; from_ms; to_ms } ]
      else []
  | Plan.Equivocate _ -> []
  | Plan.Slow_nic { node; factor } ->
      if factor > 2.0 then [ Plan.Slow_nic { node; factor = factor /. 2.0 } ]
      else []
  | Plan.Clock_skew { node; factor } ->
      let towards_1 = 1.0 +. ((factor -. 1.0) /. 2.0) in
      if Float.abs (factor -. 1.0) > 0.2 then
        [ Plan.Clock_skew { node; factor = towards_1 } ]
      else []
  (* disk faults weaken to a plain crash-restart (same timing, intact
     media) — if the failure persists, the media damage was a red
     herring *)
  | Plan.Torn_tail { node; at_ms; restart_ms }
  | Plan.Disk_loss { node; at_ms; restart_ms } ->
      [ Plan.Crash { node; at_ms; restart_ms = Some restart_ms } ]
  | Plan.Fsync_stall { node; from_ms; to_ms } ->
      if to_ms - from_ms > 100 then
        [ Plan.Fsync_stall { node; from_ms; to_ms = from_ms + ((to_ms - from_ms) / 2) } ]
      else []
  | Plan.Corrupt { node; prob; from_ms; to_ms } ->
      (if to_ms - from_ms > 100 then
         [ Plan.Corrupt
             { node; prob; from_ms; to_ms = from_ms + ((to_ms - from_ms) / 2) } ]
       else [])
      @
      if prob > 0.1 then
        [ Plan.Corrupt { node; prob = prob /. 2.0; from_ms; to_ms } ]
      else []
  | Plan.Surge { factor; from_ms; to_ms } ->
      (if to_ms - from_ms > 100 then
         [ Plan.Surge
             { factor; from_ms; to_ms = from_ms + ((to_ms - from_ms) / 2) } ]
       else [])
      @
      if factor > 2.0 then
        [ Plan.Surge { factor = factor /. 2.0; from_ms; to_ms } ]
      else []
  (* membership changes are atomic — dropping them entirely (the
     generic drop candidates) is the only simplification *)
  | Plan.Join _ | Plan.Leave _ -> []
  | Plan.Rolling { from_ms; gap_ms; down_ms } ->
      (* widen the gap: more recovery room between restarts *)
      [ Plan.Rolling { from_ms; gap_ms = 2 * gap_ms; down_ms } ]

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

(* Shrink n: 7 -> 4, keeping only faults on surviving nodes. *)
let reduce_n (p : Plan.t) : Plan.t option =
  if p.Plan.n <= 4 then None
  else
    let n = 4 in
    let f = (n - 1) / 3 in
    let keep node = node < n in
    let faults =
      List.filter_map
        (fun (fault : Plan.fault) ->
          match fault with
          | Plan.Crash { node; _ } | Plan.Loss { node; _ }
          | Plan.Equivocate { node } | Plan.Slow_nic { node; _ }
          | Plan.Clock_skew { node; _ } | Plan.Torn_tail { node; _ }
          | Plan.Disk_loss { node; _ } | Plan.Fsync_stall { node; _ }
          | Plan.Corrupt { node; _ } | Plan.Join { node; _ }
          | Plan.Leave { node; _ } ->
              if keep node then Some fault else None
          | Plan.Surge _ | Plan.Rolling _ ->
              Some fault  (* node-independent *)
          | Plan.Partition { groups; at_ms; heal_ms } ->
              let groups =
                List.filter_map
                  (fun g ->
                    match List.filter keep g with [] -> None | g -> Some g)
                  groups
              in
              if groups = [] then None
              else Some (Plan.Partition { groups; at_ms; heal_ms }))
        p.Plan.faults
    in
    let candidate = { p with Plan.n; f; faults } in
    match Plan.validate candidate with Ok () -> Some candidate | Error _ -> None

let candidates (p : Plan.t) : Plan.t list =
  let with_faults faults =
    let c = { p with Plan.faults } in
    match Plan.validate c with Ok () -> Some c | Error _ -> None
  in
  let drops =
    List.filteri (fun i _ -> i >= 0) p.Plan.faults
    |> List.mapi (fun i _ -> with_faults (drop_nth p.Plan.faults i))
    |> List.filter_map Fun.id
  in
  let weakenings =
    List.concat
      (List.mapi
         (fun i fault ->
           List.filter_map
             (fun w -> with_faults (replace_nth p.Plan.faults i w))
             (weaken fault))
         p.Plan.faults)
  in
  let reduced = match reduce_n p with Some c -> [ c ] | None -> [] in
  drops @ reduced @ weakenings

(* Replays one shrink may spend. *)
let max_runs = 64

let shrink ?inject_fork ~budget_ms plan =
  let runs = ref 0 in
  let fails p =
    incr runs;
    failed (run_plan ?inject_fork ~budget_ms p)
  in
  if not (fails plan) then plan
  else begin
    let current = ref plan in
    let progress = ref true in
    while !progress && !runs < max_runs do
      progress := false;
      let cands = candidates !current in
      (try
         List.iter
           (fun c ->
             if !runs >= max_runs then raise Exit;
             if fails c then begin
               current := c;
               progress := true;
               raise Exit
             end)
           cands
       with Exit -> ())
    done;
    !current
  end

let cli_of_plan ~budget_ms plan =
  Printf.sprintf "fl_explore --budget-ms %d --plan '%s'" budget_ms
    (Plan.to_string plan)
