(* Aggregate open-loop traffic source.

   Models an arbitrarily large client population with O(1) simulator
   fibers: one tick fiber draws a Poisson count of arrivals per tick
   from the compound rate (diurnal × surges) and submits them in
   aggregate, and backpressured transactions retry through *cohorts* —
   all clients whose backoff expires in the same quantum share one
   wake-up event, however many of them there are. Per-client state
   (retry count, submit time, fee bid, account) lives in plain table
   entries, not fibers.

   The source never touches Fl_flo or Fl_fireledger directly: it
   submits through an injected [sink] and learns outcomes through
   [note_block] (transactions finalized, with the block's event-A
   drain time) and [note_evicted] (fee-priority displacement). That
   keeps the accounting honest — every generated transaction ends in
   exactly one of {finalized, dropped-after-retries, evicted,
   still-pending}, which is what the conservation oracle checks. *)

open Fl_sim
open Fl_chain

type consistency = Session | Bounded_staleness of Time.t

type config = {
  arrivals : Arrivals.t;
  tick : Time.t;
  tx_size : int;
  accounts : int;
  fee_levels : int;
  max_retries : int;
  retry_backoff : Time.t;
  read_ratio : float;
  consistency : consistency;
}

let default_config ~arrivals =
  { arrivals;
    tick = Time.ms 1;
    tx_size = 128;
    accounts = 1_000_000;
    fee_levels = 16;
    max_retries = 3;
    retry_backoff = Time.ms 5;
    read_ratio = 0.;
    consistency = Session }

type pending = {
  tx : Tx.t;
  submit : Time.t;  (* first submission attempt *)
  fee : int;
  account : int;
  mutable tries : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  recorder : Fl_metrics.Recorder.t;
  sink : Tx.t -> fee:int -> bool;
  cfg : config;
  accounts_z : Zipf.t;
  fees_z : Zipf.t;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t;  (* tx id -> entry, admitted only *)
  cohorts : (int, pending list ref) Hashtbl.t;  (* wake bucket -> retriers *)
  account_inflight : (int, int) Hashtbl.t;  (* account -> unfinalized writes *)
  mutable last_final : Time.t;
  mutable generated : int;
  mutable admitted : int;
  mutable backpressured : int;
  mutable retried_txs : int;
  mutable dropped : int;
  mutable evicted : int;
  mutable finalized : int;
  mutable reads : int;
  mutable reads_stale : int;
  mutable running : bool;
}

(* Load-tier ids live far above the proposers' synthetic range
   (instance i uses i·1e9+seq) so padding transactions can never alias
   a client transaction. *)
let id_base = 1 lsl 46

(* Zipf exponent of the account key space. *)
let zipf_s = 1.01

let create engine ~rng ~recorder ~sink cfg =
  if cfg.tick <= 0 then invalid_arg "Source: tick";
  if cfg.accounts < 1 then invalid_arg "Source: accounts";
  if cfg.fee_levels < 1 then invalid_arg "Source: fee_levels";
  if cfg.max_retries < 0 then invalid_arg "Source: max_retries";
  if cfg.retry_backoff <= 0 then invalid_arg "Source: retry_backoff";
  if cfg.read_ratio < 0. then invalid_arg "Source: read_ratio";
  { engine;
    rng;
    recorder;
    sink;
    cfg;
    accounts_z = Zipf.create ~n:cfg.accounts ~s:zipf_s;
    fees_z = Zipf.create ~n:cfg.fee_levels ~s:1.0;
    next_seq = 0;
    pending = Hashtbl.create 1024;
    cohorts = Hashtbl.create 64;
    account_inflight = Hashtbl.create 1024;
    last_final = 0;
    generated = 0;
    admitted = 0;
    backpressured = 0;
    retried_txs = 0;
    dropped = 0;
    evicted = 0;
    finalized = 0;
    reads = 0;
    reads_stale = 0;
    running = false }

let bump_inflight t account d =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.account_inflight account) in
  let nv = cur + d in
  if nv <= 0 then Hashtbl.remove t.account_inflight account
  else Hashtbl.replace t.account_inflight account nv

let settle t entry = bump_inflight t entry.account (-1)

(* One wake-up event per (backoff-quantum) bucket, shared by every
   client retrying in it. *)
let rec enqueue_retry t entry =
  let quantum = t.cfg.retry_backoff in
  let wake = Engine.now t.engine + quantum in
  let bucket = (wake + quantum - 1) / quantum in
  match Hashtbl.find_opt t.cohorts bucket with
  | Some l -> l := entry :: !l
  | None ->
      let l = ref [ entry ] in
      Hashtbl.add t.cohorts bucket l;
      let delay = Stdlib.max 1 ((bucket * quantum) - Engine.now t.engine) in
      ignore
        (Engine.schedule t.engine ~delay (fun () ->
             Hashtbl.remove t.cohorts bucket;
             if t.running then List.iter (attempt t) (List.rev !l)
             else
               List.iter
                 (fun e ->
                   t.dropped <- t.dropped + 1;
                   settle t e)
                 !l))

and attempt t entry =
  if t.sink entry.tx ~fee:entry.fee then begin
    t.admitted <- t.admitted + 1;
    Hashtbl.replace t.pending entry.tx.Tx.id entry
  end
  else begin
    t.backpressured <- t.backpressured + 1;
    if entry.tries < t.cfg.max_retries then begin
      if entry.tries = 0 then t.retried_txs <- t.retried_txs + 1;
      entry.tries <- entry.tries + 1;
      enqueue_retry t entry
    end
    else begin
      t.dropped <- t.dropped + 1;
      settle t entry
    end
  end

let generate_one t ~now =
  let account = Zipf.draw t.accounts_z t.rng in
  (* fee bid: Zipf-skewed so low bids dominate and the rare whale bid
     exercises priority eviction *)
  let fee = Zipf.draw t.fees_z t.rng - 1 in
  let id = id_base + t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let tx = Tx.create ~id ~size:t.cfg.tx_size in
  t.generated <- t.generated + 1;
  bump_inflight t account 1;
  attempt t { tx; submit = now; fee; account; tries = 0 }

let do_read t ~now =
  t.reads <- t.reads + 1;
  let account = Zipf.draw t.accounts_z t.rng in
  let fresh =
    match t.cfg.consistency with
    | Session ->
        (* read-your-writes: no unfinalized write of ours on the key *)
        not (Hashtbl.mem t.account_inflight account)
    | Bounded_staleness bound ->
        (* replica frontier within the staleness bound *)
        now - t.last_final <= bound
  in
  Fl_metrics.Recorder.observe t.recorder "read_staleness"
    (Stdlib.max 0 (now - t.last_final));
  if not fresh then t.reads_stale <- t.reads_stale + 1

let start t =
  if t.running then invalid_arg "Source.start: already running";
  t.running <- true;
  Fiber.spawn t.engine (fun () ->
      while t.running do
        Fiber.sleep t.engine t.cfg.tick;
        if t.running then begin
          let now = Engine.now t.engine in
          let n =
            Arrivals.count_in t.cfg.arrivals t.rng ~now:(now - t.cfg.tick)
              ~dt:t.cfg.tick
          in
          for _ = 1 to n do
            generate_one t ~now
          done;
          if t.cfg.read_ratio > 0. && n > 0 then begin
            let reads =
              Arrivals.poisson t.rng
                ~mean:(t.cfg.read_ratio *. float_of_int n)
            in
            for _ = 1 to reads do
              do_read t ~now
            done
          end
        end
      done)

let stop t = t.running <- false

let note_block t txs ~a ~final =
  Array.iter
    (fun (tx : Tx.t) ->
      match Hashtbl.find_opt t.pending tx.Tx.id with
      | None -> ()
      | Some entry ->
          Hashtbl.remove t.pending tx.Tx.id;
          t.finalized <- t.finalized + 1;
          settle t entry;
          Fl_obs.Decomp.record_client t.recorder
            (Fl_obs.Decomp.of_client_times ~submit:entry.submit ~a ~final))
    txs;
  if final > t.last_final then t.last_final <- final

let note_evicted t (tx : Tx.t) ~fee:_ =
  match Hashtbl.find_opt t.pending tx.Tx.id with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.pending tx.Tx.id;
      t.evicted <- t.evicted + 1;
      settle t entry

type stats = {
  generated : int;
  admitted : int;
  backpressured : int;
  retried_txs : int;
  dropped : int;
  evicted : int;
  finalized : int;
  pending : int;
  retrying : int;
  reads : int;
  reads_stale : int;
}

let stats t =
  let retrying =
    Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.cohorts 0
  in
  { generated = t.generated;
    admitted = t.admitted;
    backpressured = t.backpressured;
    retried_txs = t.retried_txs;
    dropped = t.dropped;
    evicted = t.evicted;
    finalized = t.finalized;
    pending = Hashtbl.length t.pending;
    retrying;
    reads = t.reads;
    reads_stale = t.reads_stale }

let pending_ids (t : t) =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.pending []

let recorder t = t.recorder
