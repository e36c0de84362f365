(* End-to-end benchmark: one workload per invocation, single process,
   single domain.

     dune exec bench/e2e/fl_bench.exe -- --workload steady --seed 42 \
       [--seconds S] [--trace [0|1]] [--json FILE]

   Untraced, it repeats the workload until [--seconds] of host time are
   used (at least once) and prints every end-to-end metric as
   [name value unit]; traced, it alternates untraced and traced
   repetitions and prints every per-layer metric. The last line of
   standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   It exits 1 when a correctness check fails or a repetition's
   simulated results differ from the first one's.

     fl_bench.exe --selftest BENCHMARK.json        (tiny durations)
     fl_bench.exe --ledger baselines/E2E_seed42.json
     fl_bench.exe --write-ledger baselines/E2E_seed42.json *)

module Clock = Fl_prof.Clock
module Json = Fl_prof.Json
module Prof = Fl_prof.Prof
module Histogram = Fl_metrics.Histogram

(* ---------- the metric catalogue ----------

   [Sim] metrics are deterministic functions of (workload, seed): they
   repeat exactly and make up the results ledger. [Host] metrics are
   the simulator's own cost on this machine. *)

type kind = E2e | Layer
type source = Sim | Host

let catalogue =
  [ ("sim_rate", "sim-s/s", E2e, Host);
    ("setup_s", "s", E2e, Host);
    ("peak_heap_mb", "MB", E2e, Host);
    ("ktps", "ktx/s", E2e, Sim);
    (* what the workload's users see: block A->E latency, or
       client submit->final on clients *)
    ("lat.p50_ms", "sim-ms", Layer, Sim);
    ("lat.p99_ms", "sim-ms", Layer, Sim);
    ("lat.samples", "count", Layer, Sim);
    (* sim: the event engine and the host runtime *)
    ("sim.events", "count", Layer, Sim);
    ("sim.pending_max", "count", Layer, Host);
    ("sim.loop_ms", "ms", Layer, Host);
    ("sim.handler_ms", "ms", Layer, Host);
    ("sim.event_ns_p50", "ns", Layer, Host);
    ("sim.event_ns_p99", "ns", Layer, Host);
    ("sim.cpu_util", "frac", Layer, Sim);
    ("gc.minor_words_per_event", "words", Layer, Host);
    ("gc.major_words_per_event", "words", Layer, Host);
    (* wire *)
    ("wire.encode_ms", "ms", Layer, Host);
    ("wire.encode_calls", "count", Layer, Host);
    ("wire.decode_ms", "ms", Layer, Host);
    ("wire.decode_calls", "count", Layer, Host);
    (* crypto *)
    ("crypto.sha256_ms", "ms", Layer, Host);
    ("crypto.sha256_calls", "count", Layer, Host);
    ("crypto.signatures_per_block", "count", Layer, Sim);
    ("crypto.verifications_per_block", "count", Layer, Sim);
    (* net *)
    ("net.msgs_per_block", "count", Layer, Sim);
    ("net.bytes_per_block", "B", Layer, Sim);
    ("net.decode_errors", "count", Layer, Sim);
    (* consensus *)
    ("consensus.obbc_fast_frac", "frac", Layer, Sim);
    ("consensus.obbc_slow_paths", "count", Layer, Sim);
    ("consensus.bbc_rounds", "count", Layer, Sim);
    (* fireledger / flo *)
    ("fireledger.recoveries_per_s", "1/s", Layer, Sim);
    ("fireledger.blocks_rescinded", "count", Layer, Sim);
    ("fireledger.adopted_blocks", "count", Layer, Sim);
    ("fireledger.phase_dissemination_ms", "sim-ms", Layer, Sim);
    ("fireledger.phase_quorum_wait_ms", "sim-ms", Layer, Sim);
    ("fireledger.phase_finality_delay_ms", "sim-ms", Layer, Sim);
    ("flo.merge_wait_ms", "sim-ms", Layer, Sim);
    (* persist *)
    ("persist.wal_calls", "count", Layer, Host);
    ("persist.fsyncs_per_block", "count", Layer, Sim);
    ("persist.bytes_per_block", "B", Layer, Sim);
    ("persist.snapshots", "count", Layer, Sim);
    ("persist.replayed", "count", Layer, Sim);
    ("persist.recover_ms", "sim-ms", Layer, Sim);
    (* chain / load *)
    ("chain.mempool_evicted", "count", Layer, Sim);
    ("chain.mempool_backpressured", "count", Layer, Sim);
    ("load.goodput_ktps", "ktx/s", Layer, Sim);
    ("load.client_failed_frac", "frac", Layer, Sim);
    ("load.admission_wait_p50_ms", "sim-ms", Layer, Sim);
    ("load.client_consensus_p50_ms", "sim-ms", Layer, Sim);
    ("load.retried_txs", "count", Layer, Sim);
    ("load.read_stale_frac", "frac", Layer, Sim);
    (* the benchmark itself *)
    ("bench.trace_overhead_frac", "frac", Layer, Host);
    ("solo.ktps", "ktx/s", Layer, Sim);
    ("solo.sim_rate", "sim-s/s", Layer, Host) ]

(* ---------- repetitions ---------- *)

let now_s () = float_of_int (Clock.now_ns_int ()) /. 1e9

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

type rep = { meter : Meter.t; outcome : Workloads.outcome }

let one_rep ~trace run ~seed ~smoke =
  let meter = Meter.create ~trace () in
  let outcome = run meter ~seed ~smoke in
  { meter; outcome }

(* The simulated results a repetition must reproduce exactly. *)
let det r =
  r.outcome.Workloads.results @ [ ("sim.events", float_of_int r.meter.Meter.events) ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("fl_bench: " ^ s); exit 2) fmt

(* Set-up is building the workload's first simulation, up to its first
   simulated event; [k] samples. (Timing a whole child process instead
   would add runtime start-up, but spawn time swings severalfold when
   another process contends for memory.) *)
let sample_setups run ~seed ~smoke k =
  List.init k (fun _ ->
      match run (Meter.create ~setup_only:true ()) ~seed ~smoke with
      | (_ : Workloads.outcome) -> fail "a workload ran no simulation"
      | exception Meter.Setup_sampled s -> s)

(* Call [f] until [seconds] of host time are used, starting a new call
   only if the previous one's duration still fits; at least once. *)
let repeat ~seconds f =
  let t0 = now_s () in
  let rec go acc last =
    if acc <> [] && now_s () -. t0 +. last > seconds then List.rev acc
    else
      let t = now_s () in
      let r = f () in
      go (r :: acc) (now_s () -. t)
  in
  go [] 0.

type report = {
  metrics : (string * float * string) list;  (* in catalogue order *)
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  traced : Meter.t list;
}

let correct r = r.failed = 0

let measure ~name ~seed ~seconds ~trace ~smoke =
  let run = List.assoc name Workloads.all in
  let untraced () = one_rep ~trace:false run ~seed ~smoke in
  let setups =
    if trace then [] else sample_setups run ~seed ~smoke (if smoke then 1 else 25)
  in
  let pairs =
    repeat ~seconds (fun () ->
        let u = untraced () in
        (u, if trace then Some (one_rep ~trace:true run ~seed ~smoke) else None))
  in
  let plain = List.map fst pairs and traced = List.filter_map snd pairs in
  let all = plain @ traced in
  let first = List.hd plain in
  let rep_ok r =
    det r = det first && List.for_all snd r.outcome.Workloads.checks
  in
  let failed = List.length (List.filter (fun r -> not (rep_ok r)) all) in
  let med f reps = median (List.map f reps) in
  let ms = List.map (fun r -> r.meter) in
  let per_event words r = words r.meter /. float_of_int (max 1 r.meter.Meter.events) in
  let solo =
    if trace && name = "steady" then begin
      let m = Meter.create () in
      let ktps = Workloads.solo m ~seed ~smoke in
      [ ("solo.ktps", ktps); ("solo.sim_rate", Meter.sim_rate m) ]
    end
    else []
  in
  let host =
    [ ("sim_rate", med Meter.sim_rate (ms plain));
      ("setup_s", median setups);
      ("peak_heap_mb", Meter.peak_heap_mb first.meter);
      ("gc.minor_words_per_event", med (per_event (fun m -> m.Meter.minor_words)) plain);
      ("gc.major_words_per_event", med (per_event (fun m -> m.Meter.major_words)) plain) ]
    @
    match traced with
    | [] -> []
    | t0 :: _ ->
        let tm = ms traced in
        let q p m = float_of_int (Histogram.quantile m.Meter.event_ns p) in
        [ ("sim.pending_max", float_of_int t0.meter.Meter.pending_max);
          ("sim.loop_ms", med Meter.loop_ms tm);
          ("sim.handler_ms", med (fun m -> Meter.self_ms m Prof.engine) tm);
          ("sim.event_ns_p50", med (q 0.50) tm);
          ("sim.event_ns_p99", med (q 0.99) tm);
          ("wire.encode_ms", med (fun m -> Meter.self_ms m Prof.codec_encode) tm);
          ("wire.encode_calls", float_of_int (Meter.calls t0.meter Prof.codec_encode));
          ("wire.decode_ms", med (fun m -> Meter.self_ms m Prof.codec_decode) tm);
          ("wire.decode_calls", float_of_int (Meter.calls t0.meter Prof.codec_decode));
          ("crypto.sha256_ms", med (fun m -> Meter.self_ms m Prof.sha256) tm);
          ("crypto.sha256_calls", float_of_int (Meter.calls t0.meter Prof.sha256));
          ("persist.wal_calls", float_of_int (Meter.calls t0.meter Prof.wal));
          ("bench.trace_overhead_frac",
           1. -. (med Meter.sim_rate tm /. med Meter.sim_rate (ms plain))) ]
  in
  let values = det first @ host @ solo in
  let want = if trace then Layer else E2e in
  let metrics =
    List.filter_map
      (fun (n, unit_, kind, _) ->
        if kind <> want then None
        else Some (n, Option.value ~default:0. (List.assoc_opt n values), unit_))
      catalogue
  in
  { metrics;
    checks = first.outcome.Workloads.checks;
    attempted = List.length all;
    failed;
    traced = ms traced }

(* ---------- output ---------- *)

let print_report r =
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (Json.num_to_string v) u)
    r.metrics;
  List.iter
    (fun (n, ok) -> Printf.printf "check %s: %s\n" n (if ok then "ok" else "FAIL"))
    r.checks;
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Json.num_to_string v) u)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) r.attempted r.failed metrics

let write_trace ~path ~name ~seed r =
  let span (s : Meter.span) =
    Json.Obj
      [ ("id", Json.Num (float_of_int s.Meter.id));
        ("parent", Json.Num (float_of_int s.Meter.parent));
        ("name", Json.Str s.Meter.name);
        ("start_ms", Json.Num (float_of_int s.Meter.t0 /. 1e6));
        ("end_ms", Json.Num (float_of_int s.Meter.t1 /. 1e6)) ]
  in
  let doc =
    Json.Obj
      [ ("workload", Json.Str name);
        ("seed", Json.Num (float_of_int seed));
        ("metrics",
         Json.Obj
           (List.map
              (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
              r.metrics));
        ("repetitions",
         Json.Arr
           (List.map
              (fun m -> Json.Obj [ ("spans", Json.Arr (List.map span (Meter.spans m))) ])
              r.traced)) ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc))

(* ---------- results ledger ---------- *)

let read_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let ledger_seed = 42

(* One untraced repetition per workload at the ledger seed. *)
let ledger_results () =
  List.map
    (fun (name, run) ->
      let r = one_rep ~trace:false run ~seed:ledger_seed ~smoke:false in
      List.iter
        (fun (c, ok) -> if not ok then fail "%s: check failed: %s" name c)
        r.outcome.Workloads.checks;
      (name, det r))
    Workloads.all

let write_ledger path =
  let doc =
    Json.Obj
      [ ("seed", Json.Num (float_of_int ledger_seed));
        ("workloads",
         Json.Obj
           (List.map
              (fun (name, vs) -> (name, Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) vs)))
              (ledger_results ()))) ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc));
  Printf.printf "wrote %s\n" path

let check_ledger path =
  let pinned = Option.value ~default:Json.Null (Json.member "workloads" (read_json path)) in
  let diffs = ref 0 in
  List.iter
    (fun (name, vs) ->
      let want = Json.member name pinned in
      let get k = Option.bind want (fun w -> Option.bind (Json.member k w) Json.to_float) in
      List.iter
        (fun (k, v) ->
          match get k with
          | Some p when p = v -> ()
          | p ->
              incr diffs;
              Printf.printf "%s %s: ledger %s, now %s\n" name k
                (match p with Some p -> Json.num_to_string p | None -> "absent")
                (Json.num_to_string v))
        vs;
      match want with
      | Some (Json.Obj fields) when List.length fields = List.length vs -> ()
      | _ ->
          incr diffs;
          Printf.printf "%s: ledger lists other metrics than the benchmark\n" name)
    (ledger_results ());
  if !diffs > 0 then begin
    Printf.printf
      "%d simulated result(s) differ from %s: a behaviour change must \
       re-baseline it (--write-ledger) in its own diff\n"
      !diffs path;
    exit 1
  end;
  Printf.printf "results ledger %s: all simulated metrics identical\n" path

(* ---------- self-test ---------- *)

(* Every workload at tiny durations: each metric BENCHMARK.json names
   is produced with its unit, end-to-end values are finite and nonzero,
   the checks pass, and two same-seed runs agree on every simulated
   metric. *)
let selftest path =
  let spec = read_json path in
  let names key =
    match Option.bind (Json.member key spec) Json.to_arr with
    | Some xs ->
        List.map
          (fun x ->
            let s k = Option.bind (Json.member k x) Json.to_str in
            (Option.get (s "name"), s "unit"))
          xs
    | None -> fail "%s: no %s" path key
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let workloads = List.map fst (names "workloads") in
  if workloads <> List.map fst Workloads.all then
    problem "BENCHMARK.json workloads differ from the benchmark's";
  let expect key (r : report) =
    List.iter
      (fun (n, u) ->
        match List.find_opt (fun (m, _, _) -> m = n) r.metrics with
        | Some (_, _, mu) when Some mu = u -> ()
        | Some _ -> problem "%s: unit differs from BENCHMARK.json" n
        | None -> problem "%s: not printed" n)
      (names key)
  in
  List.iter
    (fun (name, _) ->
      let go trace = measure ~name ~seed:ledger_seed ~seconds:0. ~trace ~smoke:true in
      let a = go false and b = go false and t = go true in
      expect "end_to_end" a;
      expect "per_layer" t;
      List.iter
        (fun (n, v, _) ->
          if v = 0. || not (Float.is_finite v) then problem "%s %s = %g" name n v)
        a.metrics;
      List.iter
        (fun r -> if not (correct r) then problem "%s: a check failed" name)
        [ a; b; t ];
      let sim r =
        List.filter
          (fun (n, _, _) ->
            List.exists (fun (c, _, _, src) -> c = n && src = Sim) catalogue)
          r.metrics
      in
      if sim a <> sim b then problem "%s: same seed, different simulated metrics" name;
      Printf.printf "selftest %s: %d end-to-end, %d per-layer metrics\n%!" name
        (List.length a.metrics) (List.length t.metrics))
    Workloads.all;
  match !problems with
  | [] -> print_endline "selftest: ok"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* ---------- entry point ---------- *)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 0. in
  let trace = ref false and json = ref None in
  let task = ref None in
  let usage () =
    prerr_endline
      "usage: fl_bench.exe --workload NAME [--seed N] [--seconds S] \
       [--trace [0|1]] [--json FILE]\n\
      \       fl_bench.exe --selftest BENCHMARK.json\n\
      \       fl_bench.exe (--ledger | --write-ledger) FILE";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--json" :: f :: rest -> json := Some f; parse rest
    | [ "--selftest"; f ] -> task := Some (fun () -> selftest f)
    | [ "--ledger"; f ] -> task := Some (fun () -> check_ledger f)
    | [ "--write-ledger"; f ] -> task := Some (fun () -> write_ledger f)
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match (!task, !workload) with
  | Some f, None -> f ()
  | Some _, Some _ -> usage ()
  | None, Some name when List.mem_assoc name Workloads.all ->
      let r =
        measure ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:false
      in
      Option.iter (fun path -> write_trace ~path ~name ~seed:!seed r) !json;
      print_report r;
      if not (correct r) then exit 1
  | None, Some name -> fail "unknown workload %S" name
  | None, None -> usage ()
