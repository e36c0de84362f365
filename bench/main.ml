(* The benchmark harness.

   Two layers, both in this executable:

   1. Micro-benchmarks on Fl_prof.Bench — one kernel per reproduced
      table/figure plus the substrate/codec hot paths. Each kernel is
      measured in geometrically growing batches under a host-time
      quota; ns/run comes from an OLS fit (per-batch overhead lands in
      the intercept) and allocated words/run off the Gc counters.
      `--json` writes one BENCH_<area>.json per area in the stable
      fl-bench schema; `--check <baseline>` gates the current run
      against committed baselines and exits non-zero on regression.

   2. The experiment harness (Fl_harness.Experiments) — regenerates
      every table and figure of the paper's evaluation as aligned
      text tables. `--full` runs the complete paper grid; default is
      the quick grid. Experiments are skipped when `--json` or
      `--check` is given (CI bench runs) unless ids are named.

   Usage: dune exec bench/main.exe [-- --full] [-- --skip-micro]
          dune exec bench/main.exe -- fig7          (one experiment)
          dune exec bench/main.exe -- --json --smoke --out bench-out
          dune exec bench/main.exe -- --smoke --check bench/baselines *)

module Bench = Fl_prof.Bench
module Compare = Fl_prof.Compare

(* ---------- micro kernels ---------- *)

let payload_4k = String.init 4096 (fun i -> Char.chr (i land 0xff))

let registry = Fl_crypto.Signature.create_registry ~seed:"bench" ~n:4

let mini_flo ~n ~workers ~batch ~byzantine () =
  let config =
    { (Fl_fireledger.Config.default ~n) with
      Fl_fireledger.Config.batch_size = batch;
      tx_size = 128 }
  in
  let behavior i =
    if byzantine && i = 1 then Fl_fireledger.Instance.Equivocator
    else Fl_fireledger.Instance.Honest
  in
  let c = Fl_flo.Cluster.create ~seed:1 ~config ~behavior ~workers () in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.ms 150) c

let mini_geo () =
  let config =
    { (Fl_fireledger.Config.default ~n:4) with
      Fl_fireledger.Config.batch_size = 10;
      tx_size = 128 }
  in
  let c =
    Fl_flo.Cluster.create ~seed:1 ~config ~workers:1
      ~latency:(Fl_workload.Regions.latency ~n:4 ())
      ()
  in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.s 1) c

let mini_crash () =
  let config =
    { (Fl_fireledger.Config.default ~n:4) with
      Fl_fireledger.Config.batch_size = 10;
      tx_size = 128 }
  in
  let c = Fl_flo.Cluster.create ~seed:1 ~config ~workers:1 () in
  Fl_flo.Cluster.start c;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.ms 50) c;
  Fl_flo.Cluster.crash c 3;
  Fl_flo.Cluster.run ~until:(Fl_sim.Time.ms 400) c

let mini_hotstuff () =
  let hs = Fl_baselines.Hotstuff.create ~n:4 ~f:1 ~batch_size:10 ~tx_size:128 () in
  Fl_baselines.Hotstuff.start hs;
  Fl_baselines.Hotstuff.run ~until:(Fl_sim.Time.ms 300) hs

let mini_pbft () =
  let pb =
    Fl_baselines.Pbft_cluster.create ~n:4 ~f:1 ~batch_size:10 ~tx_size:128 ()
  in
  Fl_baselines.Pbft_cluster.start pb;
  Fl_baselines.Pbft_cluster.run ~until:(Fl_sim.Time.ms 200) pb

(* Codec micro-bench: the wire codec sits on every message hop, so its
   cost is part of the simulator's own overhead (not simulated time). *)
let codec_msg =
  let txs = Array.init 100 (fun i -> Fl_chain.Tx.create ~id:i ~size:128) in
  let block =
    Fl_chain.Block.create ~round:1 ~proposer:0
      ~prev_hash:Fl_chain.Block.genesis_hash txs
  in
  Fl_fireledger.Msg.Body
    { body_hash = block.Fl_chain.Block.header.Fl_chain.Header.body_hash;
      txs;
      ttl = 1 }

let codec_msg_bytes = Fl_fireledger.Msg.encode codec_msg

(* The same frame embedded mid-buffer: the view-decode kernel reads it
   in place ([Msg.decode_sub]) where the copy path would first
   [String.sub] it out. *)
let codec_framed_buf = "\x00batch-prefix\x00" ^ codec_msg_bytes ^ "\x00tail"
let codec_framed_pos = 14
let codec_framed_len = String.length codec_msg_bytes

(* Receive path: one 100-tx body broadcast over a 16-node net into 16
   hubs. The receivers share the frame's single decode; decoding once
   per receiver instead makes this kernel ~11x slower (~16x at smoke
   quota). The world is built once and each run empties the channel
   it filled. *)
let bcast_nodes = 16
let bcast_engine = Fl_sim.Engine.create ()

let bcast_net =
  Fl_net.Net.create bcast_engine (Fl_sim.Rng.create 1)
    ~nics:
      (Array.init bcast_nodes (fun _ ->
           Fl_net.Nic.create ~bandwidth_bps:Fl_net.Nic.ten_gbps))
    ~latency:Fl_net.Latency.single_dc ~decode:Fl_fireledger.Msg.decode

let bcast_boxes =
  let key = Fl_fireledger.Msg.key codec_msg in
  Array.init bcast_nodes (fun i ->
      let hub =
        Fl_net.Hub.create bcast_engine ~inbox:(Fl_net.Net.inbox bcast_net i)
          ~key:Fl_fireledger.Msg.key ()
      in
      Fl_net.Hub.box hub key)

let wal_record =
  let txs = Array.init 100 (fun i -> Fl_chain.Tx.create ~id:i ~size:128) in
  let block =
    Fl_chain.Block.create ~round:7 ~proposer:0
      ~prev_hash:Fl_chain.Block.genesis_hash txs
  in
  Fl_persist.Wal.Append { block; signature = String.make 32 's' }

(* A live log for the WAL framing kernel: [Wal.build_frame] seals into
   the log's reusable writer, the steady state of every append. *)
let bench_wal = Fl_persist.Wal.create ~segment_bytes:(1 lsl 20)

(* Sweep kernel: fixed work (4 shards x 2000-event engine drain)
   through the domain map at this host's recommended width — measures
   shard dispatch + spawn/join overhead against the same work run
   sequentially when only one core is available. *)
let sweep_jobs = min 4 (max 1 (Domain.recommended_domain_count ()))

let sweep_shard _ =
  let e = Fl_sim.Engine.create () in
  for i = 0 to 1_999 do
    ignore (Fl_sim.Engine.schedule e ~delay:(i * 7 mod 1000) ignore)
  done;
  Fl_sim.Engine.run e

(* Traffic-tier hot paths: the Zipfian account draw sits on every
   generated transaction; admit-with-eviction is the mempool's
   overload steady state (full pool, every arrival displaces or is
   rejected). *)
let load_zipf = Fl_load.Zipf.create ~n:1_000_000 ~s:1.01

let load_rng = Fl_sim.Rng.create 42

let load_pool =
  let pool = Fl_chain.Mempool.create ~capacity:1024 () in
  for i = 0 to 1023 do
    ignore (Fl_chain.Mempool.submit pool (Fl_chain.Tx.create ~id:i ~size:128))
  done;
  pool

let load_seq = ref 1024

(* Reconfig tier: a multi-chunk snapshot of a 64-round chain, chunked
   the way the state-transfer donor does (8 KiB String.sub + Snap_chunk
   framing per chunk), and the epoch-switch computation (decode the
   reconfiguration payload off the decided block, fold the change,
   build the successor epoch). *)
let reconfig_snap_enc =
  let store = Fl_chain.Store.create () in
  let prev = ref Fl_chain.Block.genesis_hash in
  for r = 0 to 63 do
    let txs =
      Array.init 10 (fun i -> Fl_chain.Tx.create ~id:((r * 10) + i) ~size:128)
    in
    let b = Fl_chain.Block.create ~round:r ~proposer:(r mod 4) ~prev_hash:!prev txs in
    prev := Fl_chain.Block.hash b;
    match Fl_chain.Store.append store b with
    | Ok () -> ()
    | Error _ -> failwith "bench: reconfig chain build"
  done;
  match
    Fl_persist.Snapshot.build ~store ~upto:63 ~era:1 ~app:"" ~app_hash:""
  with
  | Some s -> Fl_persist.Snapshot.encode s
  | None -> failwith "bench: reconfig snapshot build"

let reconfig_chunk_bytes = 8192
let reconfig_chunk_seq = ref 0

let reconfig_block =
  let tx = Fl_fireledger.Epoch.reconfig_tx (Fl_fireledger.Epoch.Join 4) in
  Fl_chain.Block.create ~round:10 ~proposer:0 ~prev_hash:"" [| tx |]

let reconfig_genesis =
  Fl_fireledger.Epoch.genesis ~members:[ 0; 1; 2; 3 ] ~universe:5 ()

(* Persist tier: one incremental snapshot seal. A 1024-round chain
   whose first 960 rounds are already sealed (fifteen cached 64-round
   segments, as a node holds them after sealing every 64 definite
   rounds); the kernel seals through round 1023, which encodes only
   the 64 new rounds. Sealing the whole chain again instead is 16×
   the bytes. *)
let persist_store =
  let store = Fl_chain.Store.create () in
  for r = 0 to 1023 do
    let txs =
      Array.init 10 (fun i -> Fl_chain.Tx.create ~id:((r * 10) + i) ~size:128)
    in
    let b =
      Fl_chain.Block.create ~round:r ~proposer:(r mod 4)
        ~prev_hash:(Fl_chain.Store.last_hash store) txs
    in
    match Fl_chain.Store.append store b with
    | Ok () -> ()
    | Error _ -> failwith "bench: persist chain build"
  done;
  store

let persist_sealed_960 =
  List.fold_left
    (fun prev upto ->
      Fl_persist.Snapshot.seal ~prev ~store:persist_store ~upto ~era:1 ~app:""
        ~app_hash:"")
    None
    (List.init 15 (fun k -> (64 * (k + 1)) - 1))

(* The explicit, ordered kernel registry: areas in fixed order, kernels
   in fixed order within each area, so text and JSON output are
   deterministic (no Hashtbl iteration order). *)
let areas =
  [ "crypto";
    "codec";
    "substrate";
    "sweep";
    "kernels";
    "load";
    "reconfig";
    "persist" ]

let kernels : (string * string * (unit -> unit)) list =
  [ (* Figure 5 calibration: the real crypto kernels. *)
    ( "crypto",
      "fig5/sha256-4KiB",
      fun () -> ignore (Fl_crypto.Sha256.digest payload_4k) );
    ( "crypto",
      "fig5/sign-header",
      fun () -> ignore (Fl_crypto.Signature.sign registry ~signer:0 payload_4k)
    );
    ( "crypto",
      "fig5/hmac-64B",
      fun () ->
        ignore
          (Fl_crypto.Sha256.hmac ~key:"k" "calibration-message-64-bytes....")
    );
    (* Codec kernels: encode/decode of a 100-tx block body frame, its
       receive path through a 16-node broadcast, and the per-dispatch
       channel-key builders. *)
    ( "codec",
      "codec/encode-body-100tx",
      fun () -> ignore (Fl_fireledger.Msg.encode codec_msg) );
    ( "codec",
      "codec/decode-body-100tx",
      fun () -> ignore (Fl_fireledger.Msg.decode codec_msg_bytes) );
    ( "codec",
      "codec/decode-frame-view",
      fun () ->
        ignore
          (Fl_fireledger.Msg.decode_sub codec_framed_buf
             ~pos:codec_framed_pos ~len:codec_framed_len) );
    ( "codec",
      "codec/broadcast-receive-16",
      fun () ->
        Fl_net.Net.broadcast bcast_net ~src:0 codec_msg_bytes;
        Fl_sim.Engine.run bcast_engine;
        Array.iter Fl_sim.Mailbox.clear bcast_boxes );
    ( "codec",
      "codec/ob-key-concat",
      fun () -> ignore (Fl_fireledger.Msg.ob_key ~era:3 ~round:12345 ~attempt:2)
    );
    (* Substrate kernels. *)
    ( "substrate",
      "substrate/event-queue-10k",
      fun () ->
        let e = Fl_sim.Engine.create () in
        for i = 0 to 9_999 do
          ignore (Fl_sim.Engine.schedule e ~delay:(i * 7 mod 1000) ignore)
        done;
        Fl_sim.Engine.run e );
    ( "substrate",
      "substrate/wal-frame-append-reuse",
      fun () -> ignore (Fl_persist.Wal.build_frame bench_wal wal_record) );
    (* Parallel-sweep substrate: same shard work as event-queue, fanned
       through the domain map. *)
    ( "sweep",
      "sweep/domains-scaling",
      fun () -> ignore (Fl_sim.Par.map ~jobs:sweep_jobs 4 sweep_shard) );
    (* One miniature kernel per simulated table/figure. *)
    ( "kernels",
      "table1/fireledger-round-kernel",
      mini_flo ~n:4 ~workers:1 ~batch:10 ~byzantine:false );
    ( "kernels",
      "fig6-7-8-9/single-dc-kernel",
      mini_flo ~n:4 ~workers:2 ~batch:100 ~byzantine:false );
    ( "kernels",
      "fig10/large-cluster-kernel",
      mini_flo ~n:13 ~workers:1 ~batch:10 ~byzantine:false );
    ("kernels", "fig11/crash-kernel", mini_crash);
    ( "kernels",
      "fig12/byzantine-kernel",
      mini_flo ~n:4 ~workers:1 ~batch:10 ~byzantine:true );
    ("kernels", "fig13-14-15/geo-kernel", mini_geo);
    ("kernels", "fig16/hotstuff-kernel", mini_hotstuff);
    ("kernels", "fig17/pbft-kernel", mini_pbft);
    (* Traffic tier: per-transaction cost of the open-loop source's
       account draw, and of fee-priority admission into a full pool
       (each run either evicts the cheapest resident or is rejected —
       the overload path the saturation experiment lives on). *)
    ( "load",
      "load/zipf-draw-1M-accounts",
      fun () -> ignore (Fl_load.Zipf.draw load_zipf load_rng) );
    ( "load",
      "load/mempool-admit-evict-full",
      fun () ->
        (* full pool of fee-0 residents: the fee-1 arrival evicts one,
           the priority drain pops it back out, the zero-fee refill
           restores steady state — every run takes the eviction path *)
        let id = !load_seq in
        incr load_seq;
        ignore
          (Fl_chain.Mempool.admit load_pool
             (Fl_chain.Tx.create ~id ~size:128)
             ~fee:1);
        ignore (Fl_chain.Mempool.take_batch load_pool ~max:1);
        ignore
          (Fl_chain.Mempool.submit load_pool
             (Fl_chain.Tx.create ~id:(id + 1_000_000) ~size:128)) );
    (* Reconfiguration tier: per-chunk donor cost of a state transfer,
       and the full epoch-switch computation a decided reconfiguration
       block triggers on every member. *)
    ( "reconfig",
      "reconfig/state-transfer-chunk",
      fun () ->
        let len = String.length reconfig_snap_enc in
        let total = (len + reconfig_chunk_bytes - 1) / reconfig_chunk_bytes in
        let seq = !reconfig_chunk_seq in
        reconfig_chunk_seq := (seq + 1) mod total;
        let off = seq * reconfig_chunk_bytes in
        let data =
          Fl_wire.Codec.Slice.of_sub reconfig_snap_enc ~pos:off
            ~len:(min reconfig_chunk_bytes (len - off))
        in
        ignore
          (Fl_fireledger.Msg.encode
             (Fl_fireledger.Msg.Snap_chunk { sid = 1; seq; total; data })) );
    ( "reconfig",
      "reconfig/epoch-switch",
      fun () ->
        let changes = Fl_fireledger.Epoch.changes_of_block reconfig_block in
        match
          Fl_fireledger.Epoch.succeed ~universe:5 reconfig_genesis changes
            ~activation:14
        with
        | Some _ -> ()
        | None -> failwith "bench: epoch-switch produced no successor" );
    ( "persist",
      "persist/snapshot-seal-next-64",
      fun () ->
        ignore
          (Fl_persist.Snapshot.seal ~prev:persist_sealed_960
             ~store:persist_store ~upto:1023 ~era:1 ~app:"" ~app_hash:"") ) ]

(* ---------- measurement and reporting ---------- *)

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let pretty_ns est =
  if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
  else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
  else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
  else Printf.sprintf "%8.0f ns" est

let measure_all ~quota ~handicaps =
  List.map
    (fun (area, name, fn) ->
      let k = Bench.measure ~quota ~name ~area fn in
      match List.assoc_opt name handicaps with
      | Some factor ->
          { k with Bench.k_ns_per_run = k.Bench.k_ns_per_run *. factor }
      | None -> k)
    kernels

let print_micro measured =
  print_endline "== micro-benchmarks (one kernel per artifact) ==";
  List.iter
    (fun area ->
      Printf.printf "-- %s --\n" area;
      List.iter
        (fun k ->
          if String.equal k.Bench.k_area area then
            Printf.printf
              "  %-34s %s/run  minor %10.1f w/run  major %8.1f w/run  (runs %d)\n"
              k.Bench.k_name
              (pretty_ns k.Bench.k_ns_per_run)
              k.Bench.k_minor_words_per_run k.Bench.k_major_words_per_run
              k.Bench.k_runs)
        measured)
    areas;
  (* Translate the measured hash throughput into the Figure 5 axis —
     monotonic clock, so NTP steps can't skew the calibration line. *)
  let iters = 2000 in
  let t0 = Fl_prof.Clock.now_ns_int () in
  for _ = 1 to iters do
    ignore (Fl_crypto.Sha256.digest payload_4k)
  done;
  let ns_per_byte =
    float_of_int (Fl_prof.Clock.now_ns_int () - t0)
    /. float_of_int (iters * 4096)
  in
  Printf.printf
    "\n  measured SHA-256 throughput here: %.1f ns/byte (simulator's \
     m5.xlarge model: %.1f ns/byte for the JVM stack)\n\n%!"
    ns_per_byte
    Fl_crypto.Cost_model.default.Fl_crypto.Cost_model.hash_ns_per_byte

let files_of ~mode_name measured =
  let host = Bench.host_fingerprint () in
  let commit = git_commit () in
  List.map
    (fun area ->
      { Bench.f_area = area;
        f_host = host;
        f_ocaml = Sys.ocaml_version;
        f_commit = commit;
        f_mode = mode_name;
        f_kernels =
          List.filter (fun k -> String.equal k.Bench.k_area area) measured })
    areas

let ensure_dir d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755

let write_json ~dir ~mode_name measured =
  ensure_dir dir;
  List.iter
    (fun f ->
      let path = Bench.write_file ~dir f in
      Printf.printf "wrote %s (%d kernels)\n%!" path
        (List.length f.Bench.f_kernels))
    (files_of ~mode_name measured)

(* A baseline path is either one fl-bench JSON file or a directory of
   BENCH_*.json files; either way the kernels are pooled (Compare
   matches by name, so areas don't collide). *)
let load_baseline path =
  let fail msg =
    Printf.eprintf "bench: %s\n" msg;
    exit 2
  in
  if not (Sys.file_exists path) then
    fail (Printf.sprintf "no such baseline: %s" path);
  let kernels =
    if Sys.is_directory path then begin
      let names =
        Sys.readdir path |> Array.to_list
        |> List.filter (fun fn ->
               String.length fn > 6
               && String.equal (String.sub fn 0 6) "BENCH_"
               && Filename.check_suffix fn ".json")
        |> List.sort compare
      in
      if names = [] then
        fail (Printf.sprintf "no BENCH_*.json under %s" path);
      List.concat_map
        (fun fn ->
          match Bench.read_file (Filename.concat path fn) with
          | Ok f -> f.Bench.f_kernels
          | Error e -> fail (Printf.sprintf "%s: %s" fn e))
        names
    end
    else
      match Bench.read_file path with
      | Ok f -> f.Bench.f_kernels
      | Error e -> fail (Printf.sprintf "%s: %s" path e)
  in
  { Bench.f_area = "all";
    f_host = "baseline";
    f_ocaml = "";
    f_commit = "";
    f_mode = "";
    f_kernels = kernels }

let run_check ~tolerance ~baseline_path measured =
  let baseline = load_baseline baseline_path in
  let current =
    { Bench.f_area = "all";
      f_host = Bench.host_fingerprint ();
      f_ocaml = Sys.ocaml_version;
      f_commit = git_commit ();
      f_mode = "";
      f_kernels = measured }
  in
  let report = Compare.check ~tolerance ~baseline ~current () in
  print_string (Compare.render report);
  Compare.passed report

(* ---------- host-work ledger ---------- *)

(* A smoke-size Figure 12 cell: n = 7 with equivocators 1 and 4, ~1
   sim-s, so blocks are adopted through recovery — versions over PBFT,
   panic proofs and fork evidence over Bracha. The simulator is
   deterministic, so the host work this cell does is exact: it pins
   the events run and the SHA-256, envelope-encode and envelope-decode
   call counts at equality. Allocated words are not pinned; they
   differ between OCaml versions. `--json` writes the pin next to the
   BENCH files; `--check DIR` compares against DIR's pin. *)
let work_file = "WORK_byzantine.json"

let work_byzantine () =
  let module S = Fl_harness.Settings in
  let module Prof = Fl_prof.Prof in
  let s =
    { (S.flo ~n:7 ~workers:1 ~batch:100 ~tx_size:512) with
      S.seed = 1;
      warmup = Fl_sim.Time.ms 200;
      duration = Fl_sim.Time.ms 800;
      faults = { S.no_faults with S.byzantine = [ 1; 4 ] } }
  in
  let c = S.build_flo s in
  let engine = c.Fl_flo.Cluster.engine in
  let ev0 = Fl_sim.Engine.processed engine in
  Prof.enable ();
  let r =
    Fun.protect ~finally:Prof.disable (fun () -> S.run_cluster s c)
  in
  let calls sub =
    (List.find (fun st -> st.Prof.p_sub = sub) (Prof.stats ())).Prof.p_calls
  in
  if r.S.rps <= 0. then failwith "work cell: no recovery ran";
  [ ("sim.events", Fl_sim.Engine.processed engine - ev0);
    ("sha256_calls", calls Prof.sha256);
    ("codec_encode_calls", calls Prof.codec_encode);
    ("codec_decode_calls", calls Prof.codec_decode) ]

let work_json counts =
  let module J = Fl_prof.Json in
  J.to_string
    (J.Obj
       [ ("cell", J.Str "byzantine n=7 eq={1,4} seed=1 warmup=200ms run=800ms");
         ( "counts",
           J.Obj
             (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) counts) ) ])

let write_work ~dir counts =
  let path = Filename.concat dir work_file in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (work_json counts));
  Printf.printf "wrote %s\n%!" path

(* Every pinned count must be reproduced exactly. *)
let check_work path =
  let module J = Fl_prof.Json in
  let text = In_channel.with_open_text path In_channel.input_all in
  let pinned =
    match J.of_string text with
    | Ok json -> (
        match J.member "counts" json with
        | Some (J.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (J.to_float v))
              kvs
        | _ -> [])
    | Error e ->
        Printf.eprintf "bench: %s: %s\n" path e;
        exit 2
  in
  if pinned = [] then begin
    Printf.eprintf "bench: %s pins no counts\n" path;
    exit 2
  end;
  let current = work_byzantine () in
  Printf.printf "host-work ledger %s:\n" path;
  List.fold_left
    (fun ok (k, want) ->
      let got = Option.value (List.assoc_opt k current) ~default:(-1) in
      Printf.printf "  %-20s pinned %10d  now %10d  %s\n" k want got
        (if got = want then "ok" else "CHANGED");
      ok && got = want)
    true pinned

(* ---------- entry point ---------- *)

let () =
  let json = ref false in
  let out_dir = ref "." in
  let check_path = ref None in
  let smoke = ref false in
  let full = ref false in
  let skip_micro = ref false in
  let tol = ref Compare.default_tolerance in
  let handicaps = ref [] in
  let ids = ref [] in
  let usage () =
    prerr_endline
      "usage: main.exe [--full|--smoke] [--skip-micro] [--json] [--out DIR]\n\
      \                [--check BASELINE] [--tol R] [--handicap NAME:FACTOR]\n\
      \                [experiment-id ...]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--out" :: d :: rest ->
        out_dir := d;
        parse rest
    | "--check" :: p :: rest ->
        check_path := Some p;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--skip-micro" :: rest ->
        skip_micro := true;
        parse rest
    | "--tol" :: r :: rest ->
        tol := float_of_string r;
        parse rest
    | "--handicap" :: spec :: rest ->
        (match String.index_opt spec ':' with
        | Some i ->
            let name = String.sub spec 0 i in
            let factor =
              float_of_string
                (String.sub spec (i + 1) (String.length spec - i - 1))
            in
            handicaps := (name, factor) :: !handicaps
        | None -> usage ());
        parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        Printf.eprintf "unknown flag %s\n" a;
        usage ()
    | id :: rest ->
        ids := !ids @ [ id ];
        parse rest
  in
  parse (Array.to_list Sys.argv |> List.tl);
  let quota, mode_name =
    if !smoke then (Bench.smoke_quota, "smoke")
    else if !full then (Bench.full_quota, "full")
    else (Bench.default_quota, "default")
  in
  (* Micro measurements feed three consumers: the text report, the
     JSON files and the baseline check. *)
  let need_micro = (not !skip_micro) || !json || !check_path <> None in
  let measured =
    if need_micro then measure_all ~quota ~handicaps:!handicaps else []
  in
  if not !skip_micro then print_micro measured;
  if !json then begin
    write_json ~dir:!out_dir ~mode_name measured;
    write_work ~dir:!out_dir (work_byzantine ())
  end;
  let check_ok =
    match !check_path with
    | None -> true
    | Some p -> run_check ~tolerance:!tol ~baseline_path:p measured
  in
  let work_ok =
    match !check_path with
    | Some p
      when Sys.is_directory p
           && Sys.file_exists (Filename.concat p work_file) ->
        check_work (Filename.concat p work_file)
    | _ -> true
  in
  (* `--json` / `--check` invocations are CI bench runs: skip the (much
     slower) experiment grid unless ids are named explicitly. *)
  let mode =
    if !full then Fl_harness.Experiments.Full else Fl_harness.Experiments.Quick
  in
  (match !ids with
  | [] ->
      if (not !json) && !check_path = None then
        Fl_harness.Experiments.run_all mode
  | ids ->
      List.iter
        (fun id ->
          if not (Fl_harness.Experiments.run_by_id id mode) then
            Printf.eprintf "unknown experiment %S\n" id)
        ids);
  if not (check_ok && work_ok) then exit 1
