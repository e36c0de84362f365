open Fl_sim
open Fl_chain

type delivery = {
  worker : int;
  round : int;
  block : Block.t;
  times : Fl_fireledger.Instance.block_times;
  delivered_at : Time.t;
}

type pending = {
  p_round : int;
  p_block : Block.t;
  p_times : Fl_fireledger.Instance.block_times;
}

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  node_id : int;
  n_workers : int;
  queues : pending Queue.t array;  (* per worker, definite blocks *)
  mutable rr : int;  (* next worker the merge reads from *)
  mutable workers : Fl_fireledger.Instance.t array;
  keep_log : bool;
  log : Tx.t array ref;
  mutable log_len : int;
  mutable delivered_blocks : int;
  on_deliver : delivery -> unit;
  obs : Fl_obs.Obs.t option;
}

let create ~engine ~recorder ~node_id ~n_workers ?(keep_log = false)
    ?(on_deliver = fun _ -> ()) ?obs () =
  if n_workers <= 0 then invalid_arg "Flo.Node.create: n_workers";
  { engine;
    recorder;
    node_id;
    n_workers;
    queues = Array.init n_workers (fun _ -> Queue.create ());
    rr = 0;
    workers = [||];
    keep_log;
    log = ref [||];
    log_len = 0;
    delivered_blocks = 0;
    on_deliver;
    obs }

let log_push t tx =
  if t.log_len = Array.length !(t.log) then begin
    let cap = max 1024 (2 * Array.length !(t.log)) in
    let fresh = Array.make cap tx in
    Array.blit !(t.log) 0 fresh 0 t.log_len;
    t.log := fresh
  end;
  !(t.log).(t.log_len) <- tx;
  t.log_len <- t.log_len + 1

(* Drain the round-robin merge: deliver from worker [rr] while its
   queue has a block, then advance. One slow worker stalls the whole
   node — the latency effect the paper measures in §7.2.2. *)
let rec drain t =
  match Queue.take_opt t.queues.(t.rr) with
  | None -> ()
  | Some p ->
      let now = Engine.now t.engine in
      let worker = t.rr in
      t.rr <- (t.rr + 1) mod t.n_workers;
      t.delivered_blocks <- t.delivered_blocks + 1;
      if t.keep_log then Array.iter (log_push t) p.p_block.Block.txs;
      Fl_metrics.Recorder.incr t.recorder "blocks_delivered";
      Fl_metrics.Recorder.add t.recorder "txs_delivered"
        p.p_block.Block.header.Header.tx_count;
      Fl_metrics.Recorder.observe t.recorder "ev_de"
        (max 0 (now - p.p_times.Fl_fireledger.Instance.d));
      Fl_metrics.Recorder.observe t.recorder "latency_e2e"
        (max 0 (now - p.p_times.Fl_fireledger.Instance.a));
      let times = p.p_times in
      Fl_obs.Decomp.record t.recorder
        (Fl_obs.Decomp.of_times ~a:times.Fl_fireledger.Instance.a
           ~b:times.Fl_fireledger.Instance.b ~c:times.Fl_fireledger.Instance.c
           ~d:times.Fl_fireledger.Instance.d ~e:now);
      if Fl_obs.Obs.enabled t.obs then begin
        Fl_obs.Obs.span t.obs ~cat:"flo" ~name:"merge_wait" ~node:t.node_id
          ~worker ~round:p.p_round
          ~t_begin:times.Fl_fireledger.Instance.d ~t_end:now ();
        Fl_obs.Obs.instant t.obs ~cat:"flo" ~name:"deliver" ~node:t.node_id
          ~worker ~round:p.p_round
          ~args:
            [ ("txs",
               string_of_int p.p_block.Fl_chain.Block.header.Fl_chain.Header.tx_count) ]
          ~at:now ()
      end;
      t.on_deliver
        { worker;
          round = p.p_round;
          block = p.p_block;
          times = p.p_times;
          delivered_at = now };
      drain t

let output_for t ~worker =
  { Fl_fireledger.Instance.null_output with
    Fl_fireledger.Instance.on_definite =
      (fun ~round block ~times ->
        Queue.push { p_round = round; p_block = block; p_times = times }
          t.queues.(worker);
        drain t) }

let attach_workers t workers =
  if Array.length workers <> t.n_workers then
    invalid_arg "Flo.Node.attach_workers: worker count mismatch";
  t.workers <- workers

let submit_fee t tx ~fee =
  if Array.length t.workers = 0 then false
  else begin
    let best = ref 0 and best_load = ref max_int in
    Array.iteri
      (fun i w ->
        let load = Mempool.size (Fl_fireledger.Instance.mempool w) in
        if load < !best_load then begin
          best := i;
          best_load := load
        end)
      t.workers;
    Mempool.admit (Fl_fireledger.Instance.mempool t.workers.(!best)) tx ~fee
  end

let submit t tx = submit_fee t tx ~fee:0

let delivered_blocks t = t.delivered_blocks

let read t i =
  if t.keep_log && i >= 0 && i < t.log_len then Some !(t.log).(i) else None
