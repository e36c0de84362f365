open Fl_sim
open Fl_net
open Fl_chain
open State

(* ---------- pulled blocks ---------- *)

(* A pulled block's body must match its signed header (whose signature
   was checked when the reply arrived) and pass external validity. *)
let well_formed t (sh : Types.signed_header) txs =
  sh.Types.header.Header.tx_count = Array.length txs
  && String.equal (Block.body_hash txs) sh.Types.header.Header.body_hash
  && t.valid { Block.header = sh.Types.header; txs }

(* Append the block pulled for round [r] if it links onto our tip and
   is well formed. Returns true on progress. *)
let accept_pulled t r =
  match Hashtbl.find_opt t.fetched r with
  | Some (sh, txs)
    when String.equal sh.Types.header.Header.prev_hash
           (Store.last_hash t.store)
         && well_formed t sh txs ->
      Hashtbl.remove t.fetched r;
      charge_verify t;
      charge_hash t ~bytes:(body_bytes txs);
      Ledger.accept_block t { Types.sh; body = None } txs ~header_at:(now t);
      true
  | _ -> false

(* Drop the tentative suffix — every stored round past the definite
   watermark. The catch-up sync uses this when a pulled canonical
   block contradicts blocks we appended before an absence: a recovery
   we never saw rescinded them, and no amount of re-pulling will link
   onto a dead branch. Definite rounds are agreed, so the canonical
   chain is guaranteed to re-link at the watermark. *)
let rescind_tentative_suffix t =
  let from = t.definite_upto + 1 in
  let old_len = Store.length t.store in
  if from < old_len then begin
    Fl_metrics.Recorder.add (recorder t) "blocks_rescinded"
      (Ledger.replace_suffix t ~from []);
    incr_c t "catchup_rescinds";
    obs_instant t ~name:"catchup_rescind" ~round:from
      ~args:[ ("upto", string_of_int (old_len - 1)) ]
      ();
    t.round <- Store.length t.store;
    t.attempt <- 0
  end

(* Catch-up sync: a node that was isolated past its peers' live
   protocol window (their per-round OBBC state is garbage-collected)
   can no longer complete old rounds by consensus. Signed proposals in
   the stash reveal how far ahead the cluster is; blocks at depth
   > f+1 below that are definite-agreed, so we pull them wholesale
   (Req/Reply), validate signatures, hash links and bodies, and append
   without re-running consensus. The paper leaves state transfer to
   future work; this covers laggards within the peers' prune window. *)
let maybe_catch_up t =
  let target = Wrb.max_stash_round t - (f_of t + 2) in
  if target >= t.round + f_of t + 4 then begin
    incr_c t "catch_ups";
    let catch_up_start = now t and from_round = t.round in
    let abort = Some t.abort in
    let pull_timeout = min (Timer.current t.timer) (Time.ms 200) in
    (* [stalls] counts consecutive rounds where pulling produced no
       usable block; any progress resets it, so a reachable window is
       drained completely while an unreachable one (peers pruned past
       us) is abandoned quickly. *)
    let stalls = ref 0 in
    while t.round <= target && !stalls < 10 do
      Race.check ~abort;
      let r = t.round in
      if accept_pulled t r then stalls := 0
      else
        match Hashtbl.find_opt t.fetched r with
        | Some (sh, txs) when t.definite_upto < r - 1 && well_formed t sh txs
          ->
            (* A well-formed, proposer-signed block for our next round
               that does not link onto our tip: the tentative rounds we
               stored before the absence were rescinded behind our back.
               Drop them and resume pulling from the definite watermark
               (worst case an adversarial reply costs us re-pulling
               blocks we already had — tentative rounds only, so never
               safety). *)
            rescind_tentative_suffix t;
            stalls := 0
        | _ ->
            Hashtbl.remove t.fetched r;
            Wrb.request t ~r ~timeout:pull_timeout ~abort
              ~until:(fun () -> Hashtbl.mem t.fetched r);
            if not (Hashtbl.mem t.fetched r) then incr stalls
    done;
    (* The long absence inflated the WRB timer; rebase it on a normal
       delivery delay before resuming rounds. *)
    Timer.on_success t.timer ~delay:pull_timeout;
    t.full_mode <- true;
    t.attempt <- 0;
    Ledger.reseat t;
    obs_span t ~name:"catch_up" ~round:from_round
      ~args:
        [ ("target", string_of_int target); ("at", string_of_int t.round) ]
      ~t_begin:catch_up_start ~t_end:(now t) ()
  end

let pull_round t ~r ~timeout =
  if not (Hashtbl.mem t.fetched r) then
    Wrb.request t ~r ~timeout ~abort:None ~until:(fun () ->
        Hashtbl.mem t.fetched r);
  accept_pulled t r
  ||
  (Hashtbl.remove t.fetched r;
   false)

(* ---------- the Req service ---------- *)

let spawn_service_fiber t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "svc" in
      while true do
        match Mailbox.recv box with
        | src, Msg.Req { round = r } -> (
            let answer =
              match (Store.get t.store r, Hashtbl.find_opt t.signed_headers r) with
              | Some b, Some sh
                when Array.length b.Block.txs = b.Block.header.Header.tx_count
                ->
                  Some (sh, b.Block.txs)
              | _ ->
                  (* not appended yet: serve from the stash *)
                  Hashtbl.fold
                    (fun _src (p, _) acc ->
                      match acc with
                      | Some _ -> acc
                      | None ->
                          let h = p.Types.sh.Types.header in
                          if h.Header.round = r then
                            match find_body t h.Header.body_hash with
                            | Some txs -> Some (p.Types.sh, txs)
                            | None -> None
                          else None)
                    t.stash None
            in
            match answer with
            | Some (sh, txs) ->
                send t ~dst:src
                  (Msg.Reply
                     { round = r;
                       proposal = { Types.sh; body = None };
                       txs })
            | None -> ())
        | _ -> ()
      done)

(* ---------- outside the membership: joiners and leavers ---------- *)

(* A leaving node's last act as a pool holder: ship every pending
   client transaction (queued and in-flight in unproposed bodies) to
   the lowest-id surviving member, at original fee priority — the
   tx-conservation oracle must hold across membership changes. *)
let do_handoff t =
  let e = epoch_at t t.round in
  let dst =
    Array.fold_left
      (fun acc m -> if m <> me t && acc < 0 then m else acc)
      (-1) (Epoch.members e)
  in
  if dst >= 0 then begin
    let pending = ref [] in
    let qd = Mempool.take_batch_prio t.mempool ~max:max_int in
    Array.iter (fun p -> pending := p :: !pending) qd;
    Hashtbl.iter
      (fun _ batch -> Array.iter (fun p -> pending := p :: !pending) batch)
      t.pool_txs;
    Hashtbl.reset t.pool_txs;
    match !pending with
    | [] -> ()
    | l ->
        let arr = Array.of_list l in
        let txs = Array.map fst arr and fees = Array.map snd arr in
        Fl_metrics.Recorder.add (recorder t) "txs_handoff_out"
          (Array.length arr);
        obs_instant t ~name:"leave_handoff" ~round:t.round
          ~args:
            [ ("dst", string_of_int dst);
              ("txs", string_of_int (Array.length arr)) ]
          ();
        send t ~dst (Msg.Tx_handoff { txs; fees })
  end

(* Seed this (empty, joining) instance from a transferred snapshot.
   Signed headers are unknown (snapshots carry no signatures); the
   joiner re-collects them as it follows live rounds. If a durability
   layer is attached, the adopted prefix is fed through it
   (application replay + a durable snapshot) so a later cold restart
   recovers locally. *)
let adopt_snapshot t (snap : Fl_persist.Snapshot.t) chain =
  Ledger.adopt_chain t chain ~definite:snap.Fl_persist.Snapshot.upto
    ~era:snap.Fl_persist.Snapshot.era ~at_boot:false;
  match t.persist with
  | Some per ->
      for r = 0 to t.definite_upto do
        match Store.get t.store r with
        | Some b -> Fl_persist.Node.log_definite per ~upto:r ~era:t.era b
        | None -> ()
      done;
      Fl_persist.Node.take_snapshot per ~store:t.store ~upto:t.definite_upto
        ~era:t.era
  | None -> ()

(* Joiner state transfer: ask a donor for the chunked snapshot, with
   bounded exponential backoff on silence and donor rotation on
   retry. Chunks are accumulated per stream id — a donor crash
   mid-transfer resumes from the last verified (contiguously held)
   chunk against the next donor; a stream id mismatch (the chain moved
   on) restarts cleanly. The assembled snapshot is CRC-checked by
   {!Fl_persist.Snapshot.decode} (fail closed: any corruption discards
   everything — never a half-applied prefix). *)
let state_transfer t =
  incr_c t "state_transfers";
  let start = now t in
  let box = Hub.box t.env.Env.hub "snap" in
  let chunks : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let sid = ref (-1) in
  let total = ref (-1) in
  let retries = ref 0 in
  let backoff = ref (Time.ms 50) in
  let max_backoff = Time.ms 1600 in
  let result = ref None in
  let contiguous () =
    let rec go i = if Hashtbl.mem chunks i then go (i + 1) else i in
    go 0
  in
  let complete () = !total > 0 && contiguous () >= !total in
  while !result = None && not t.stopped do
    let e = epoch_at t t.round in
    let donors =
      Array.to_list (Epoch.members e) |> List.filter (fun m -> m <> me t)
    in
    match donors with
    | [] -> Fiber.sleep (engine t) !backoff
    | _ -> (
        let donor = List.nth donors (!retries mod List.length donors) in
        send t ~dst:donor (Msg.Snap_req { from_chunk = contiguous () });
        let deadline = ref (now t + !backoff) in
        let progressed = ref false in
        while (not (complete ())) && now t < !deadline do
          match Mailbox.recv_timeout box ~timeout:(!deadline - now t) with
          | Some (_src, Msg.Snap_chunk { sid = s; seq; total = tot; data })
            when tot > 0 ->
              if s <> !sid then begin
                (* a different (newer) snapshot stream: restart *)
                Hashtbl.reset chunks;
                sid := s;
                total := tot
              end;
              if not (Hashtbl.mem chunks seq) then begin
                (* copy-on-retain: the chunk view borrows the delivered
                   frame; what we accumulate must outlive it *)
                Hashtbl.replace chunks seq (Fl_wire.Codec.Slice.to_string data);
                progressed := true;
                (* progress re-arms the quiet deadline *)
                deadline := now t + !backoff
              end
          | Some _ | None -> ()
        done;
        if complete () then begin
          let buf = Buffer.create (!total * Reconfig.snap_chunk_bytes) in
          for i = 0 to !total - 1 do
            Buffer.add_string buf (Hashtbl.find chunks i)
          done;
          let encoded = Buffer.contents buf in
          charge_hash t ~bytes:(String.length encoded);
          let fail why =
            incr_c t "transfer_decode_failures";
            obs_instant t ~name:"transfer_rejected" ~round:t.round
              ~args:[ ("why", why) ]
              ();
            Hashtbl.reset chunks;
            sid := -1;
            total := -1
          in
          match Fl_persist.Snapshot.decode encoded with
          | Error e -> fail e
          | Ok snap -> (
              match Fl_persist.Snapshot.restore_chain snap with
              | Error e -> fail e
              | Ok chain -> result := Some (snap, chain))
        end
        else begin
          incr retries;
          incr_c t "transfer_retries";
          if not !progressed then backoff := min (2 * !backoff) max_backoff
        end)
  done;
  match !result with
  | None -> ()
  | Some (snap, chain) ->
      let nchunks = !total in
      adopt_snapshot t snap chain;
      obs_span t ~name:"state_transfer" ~round:t.round
        ~args:
          [ ("upto", string_of_int snap.Fl_persist.Snapshot.upto);
            ("chunks", string_of_int nchunks);
            ("retries", string_of_int !retries) ]
        ~t_begin:start ~t_end:(now t) ();
      t.output.on_transfer ~upto:snap.Fl_persist.Snapshot.upto ~chunks:nchunks
        ~retries:!retries

let observer_step t =
  if t.was_member then begin
    if not t.handoff_done then begin
      t.handoff_done <- true;
      do_handoff t
    end;
    Fiber.sleep (engine t) (Time.ms 100)
  end
  else if t.definite_upto < 0 && Store.length t.store = 0 then begin
    state_transfer t;
    if t.definite_upto < 0 then Fiber.sleep (engine t) (Time.ms 20)
  end
  else begin
    maybe_catch_up t;
    if not (pull_round t ~r:t.round ~timeout:(min (Timer.current t.timer) (Time.ms 100)))
    then Fiber.sleep (engine t) (Time.ms 10)
  end
