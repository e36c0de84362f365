open Fl_chain
open Fl_consensus
open State

(* ---------- definite decisions, pruning, GC ---------- *)

let mark_definite t =
  let tip = Store.length t.store - 1 in
  let limit = tip - (f_of t + 2) in
  while t.definite_upto < limit do
    let r = t.definite_upto + 1 in
    t.definite_upto <- r;
    match Store.get t.store r with
    | Some b ->
        let pt =
          match Hashtbl.find_opt t.times r with
          | Some pt -> pt
          | None ->
              (* adopted via recovery: only the adoption time is known *)
              { pt_a = now t; pt_b = now t; pt_c = now t }
        in
        Hashtbl.remove t.times r;
        let d = now t in
        let times = { a = pt.pt_a; b = pt.pt_b; c = pt.pt_c; d } in
        Fl_metrics.Recorder.observe (recorder t) "ev_cd" (d - pt.pt_c);
        obs_span t ~name:"finality_delay" ~round:r
          ~args:[ ("proposer", string_of_int b.Block.header.Header.proposer) ]
          ~t_begin:pt.pt_c ~t_end:d ();
        incr_c t "blocks_definite";
        Fl_metrics.Recorder.add (recorder t) "txs_definite"
          b.Block.header.Header.tx_count;
        if b.Block.header.Header.proposer = me t then begin
          Hashtbl.remove t.own_in_flight b.Block.header.Header.body_hash;
          Hashtbl.remove t.pool_txs b.Block.header.Header.body_hash
        end;
        (match t.persist with
        | Some per -> Fl_persist.Node.log_definite per ~upto:r ~era:t.era b
        | None -> ());
        Reconfig.note_reconfig t ~round:r b;
        t.output.on_definite ~round:r b ~times
    | None -> ()
  done

let gc t =
  let cutoff = t.round - t.config.Config.gc_window in
  if cutoff > 0 then begin
    let stale =
      Hashtbl.fold
        (fun ((_, r, _) as key) o acc ->
          if r < cutoff then (key, o) :: acc else acc)
        t.open_obbcs []
    in
    List.iter
      (fun (key, o) ->
        Obbc.close o;
        Hashtbl.remove t.open_obbcs key)
      stale;
    let prune_cut = t.round - t.config.Config.prune_window in
    if prune_cut > 0 then begin
      Store.prune t.store ~keep_from:prune_cut;
      Hashtbl.iter
        (fun r _ -> if r < prune_cut then Hashtbl.remove t.signed_headers r)
        (Hashtbl.copy t.signed_headers);
      Hashtbl.iter
        (fun ((r, _) as key) _ ->
          if r < prune_cut then Hashtbl.remove t.my_signed key)
        (Hashtbl.copy t.my_signed)
    end
  end

(* ---------- appending ---------- *)

let accept_block t (p : Types.proposal) txs ~header_at =
  let h = p.Types.sh.Types.header in
  let r = h.Header.round in
  let block = { Block.header = h; txs } in
  (* The body was verified when it entered the content-addressed table
     (store_body keys by the computed hash), so skip the re-hash. *)
  (match Store.append ~check_body:false t.store block with
  | Ok () -> ()
  | Error e ->
      Fmt.failwith "instance %d: append round %d: %a" (me t) r Store.pp_error
        e);
  Hashtbl.replace t.signed_headers r p.Types.sh;
  (* The accepted block may have outvoted an equivocating sibling that
     is still sitting in the stash: a clean majority closes the round
     without panic, so this is the only moment the losing variant and
     the winning one meet in one node's hands. *)
  (match Hashtbl.find_opt t.stash h.Header.proposer with
  | Some (st, _) when st.Types.sh.Types.header.Header.round = r ->
      Accountability.consider_conflict ~known_valid:true t st.Types.sh
        p.Types.sh
  | _ -> ());
  (match t.persist with
  | Some per ->
      Fl_persist.Node.log_append per ~block
        ~signature:p.Types.sh.Types.signature
  | None -> ());
  let a =
    match Hashtbl.find_opt t.body_arrival h.Header.body_hash with
    | Some at -> at
    | None -> header_at
  in
  let c = now t in
  Hashtbl.replace t.times r { pt_a = a; pt_b = header_at; pt_c = c };
  Fl_metrics.Recorder.observe (recorder t) "ev_ab" (max 0 (header_at - a));
  Fl_metrics.Recorder.observe (recorder t) "ev_bc" (max 0 (c - header_at));
  incr_c t "blocks_tentative";
  obs_span t ~name:"tentative" ~round:r
    ~args:[ ("proposer", string_of_int h.Header.proposer) ]
    ~t_begin:a ~t_end:c ();
  t.output.on_tentative ~round:r block;
  if h.Header.proposer = me t then begin
    (match Queue.peek_opt t.prepared with
    | Some (_, bh, _) when String.equal bh h.Header.body_hash ->
        ignore (Queue.pop t.prepared)
    | _ -> ());
    Hashtbl.remove t.own_in_flight h.Header.body_hash
  end;
  Hashtbl.remove t.bodies h.Header.body_hash;
  Hashtbl.remove t.body_arrival h.Header.body_hash;
  mark_definite t;
  t.attempt <- 0;
  (* Advance the cursor from the block's proposer, not the local
     cursor: for a member mid-round they are the same node, but a
     block adopted by pull (a joiner following the tip, the wedge
     pull) arrives with a stale cursor, and seeding the successor walk
     from anything but the accepted proposer desynchronises the
     proposer schedule from the members that decided the round. *)
  t.proposer <- Rotation.successor t.rotation ~round:r h.Header.proposer;
  t.round <- r + 1;
  if r land 63 = 0 then gc t

(* ---------- jumps: whole-chain adoption and suffix replacement ---------- *)

(* Re-seat the proposer cursor after the chain jumped: the successor
   of the tip block's proposer, skipping the last f proposers (lines
   b1–b3). *)
let reseat t =
  let recent = recent_proposers t (f_of t) in
  let candidate =
    match Store.last t.store with
    | Some b ->
        Rotation.successor t.rotation ~round:t.round
          b.Block.header.Header.proposer
    | None -> 0
  in
  t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate

(* Seed a fresh instance with a whole chain (read back from disk, or
   state-transferred): copy it into the store, pay for re-hashing its
   bodies, and position the definiteness watermark, era, round and
   proposer cursors. At boot the hashing is folded into [boot_delay];
   otherwise it is charged to the CPU before any cursor moves. *)
let adopt_chain t src ~definite ~era ~at_boot =
  let body_bytes_total = ref 0 in
  for i = 0 to Store.length src - 1 do
    match Store.get src i with
    | Some b -> (
        body_bytes_total := !body_bytes_total + b.Block.header.Header.body_size;
        match Store.append ~check_body:false t.store b with
        | Ok () -> ()
        | Error e ->
            Fmt.failwith "instance %d: adopted append round %d: %a" (me t) i
              Store.pp_error e)
    | None -> ()
  done;
  if Store.pruned_below src > 0 then
    Store.prune t.store ~keep_from:(Store.pruned_below src);
  if at_boot then
    t.boot_delay <-
      t.boot_delay
      + Fl_crypto.Cost_model.hash_cost t.env.Env.cost ~bytes:!body_bytes_total
  else charge_hash t ~bytes:!body_bytes_total;
  t.definite_upto <- min definite (Store.length t.store - 1);
  t.era <- era;
  t.round <- Store.length t.store;
  t.attempt <- 0;
  t.full_mode <- true;
  Reconfig.rebuild_epochs t;
  reseat t

(* Replace the stored chain from round [from] on with [blocks] (each
   with its proposer's signature) — the one chain surgery behind both
   a recovery adoption and the catch-up rescind of a dead tentative
   suffix ([blocks = []]). Our own replaced proposals re-queue their
   client transactions at original fee priority (the conservation
   contract), the WAL mirrors the surgery (a truncate record, then the
   adopted suffix re-appended), and the per-round signed headers and
   pending times follow the new chain. Returns the number of rescinded
   blocks: rounds whose block changed or was dropped. *)
let replace_suffix t ~from blocks =
  let old_len = Store.length t.store in
  let new_tip =
    List.fold_left (fun _ (b, _) -> b.Block.header.Header.round) (from - 1)
      blocks
  in
  let rescinded = ref (max 0 (old_len - new_tip - 1)) in
  (* Collect our own replaced batches before the store surgery. *)
  let readmit = ref [] in
  let collect_mine (old : Block.t) =
    if old.Block.header.Header.proposer = me t then begin
      let bh = old.Block.header.Header.body_hash in
      match Hashtbl.find_opt t.pool_txs bh with
      | Some batch ->
          Hashtbl.remove t.pool_txs bh;
          readmit := batch :: !readmit
      | None -> ()
    end
  in
  List.iter
    (fun (b, _) ->
      match Store.get t.store b.Block.header.Header.round with
      | Some old when not (String.equal (Block.hash old) (Block.hash b)) ->
          incr rescinded;
          collect_mine old
      | _ -> ())
    blocks;
  for r = new_tip + 1 to old_len - 1 do
    match Store.get t.store r with
    | Some old -> collect_mine old
    | None -> ()
  done;
  (match Store.replace_suffix t.store ~from (List.map fst blocks) with
  | Ok () ->
      List.iter
        (Array.iter (fun (tx, fee) ->
             incr_c t "txs_readmitted";
             ignore (Mempool.readmit t.mempool tx ~fee)))
        !readmit;
      (match t.persist with
      | Some per ->
          Fl_persist.Node.log_truncate per ~from;
          List.iter
            (fun (b, s) -> Fl_persist.Node.log_append per ~block:b ~signature:s)
            blocks
      | None -> ());
      for r = from to max new_tip (old_len - 1) do
        Hashtbl.remove t.signed_headers r;
        Hashtbl.remove t.times r
      done;
      List.iter
        (fun (b, s) ->
          Hashtbl.replace t.signed_headers b.Block.header.Header.round
            { Types.header = b.Block.header; signature = s })
        blocks
  | Error e ->
      (* callers validate beforehand; never expected *)
      Logs.err (fun m ->
          m "instance %d: chain replacement failed: %a" (me t) Store.pp_error e));
  !rescinded
