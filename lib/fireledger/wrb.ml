open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus
open State

(* ---------- bodies ---------- *)

let store_body t txs ~at =
  let bytes = body_bytes txs in
  charge_hash t ~bytes;
  let bh = Block.body_hash txs in
  if not (Hashtbl.mem t.bodies bh) then begin
    Hashtbl.replace t.bodies bh txs;
    Hashtbl.replace t.body_arrival bh at;
    pulse_fill t
  end;
  bh

let synth_tx t =
  let id = (me t * 1_000_000_007) + t.next_tx_id in
  t.next_tx_id <- t.next_tx_id + 1;
  Tx.create ~id ~size:t.config.Config.tx_size

(* Assemble a block body: drain the mempool, pad to β with synthetic
   transactions under the paper's full-load mode. *)
let build_body t =
  let prio =
    Mempool.take_batch_prio t.mempool ~max:t.config.Config.batch_size
  in
  let batch = Array.map fst prio in
  let txs =
    if
      t.config.Config.fill_blocks
      && Array.length batch < t.config.Config.batch_size
    then
      Array.append batch
        (Array.init
           (t.config.Config.batch_size - Array.length batch)
           (fun _ -> synth_tx t))
    else batch
  in
  let at = now t in
  let bh = store_body t txs ~at in
  if Array.length prio > 0 then Hashtbl.replace t.pool_txs bh prio;
  (txs, bh, at)

(* Sample [fanout] distinct peers (never self). *)
let gossip_peers t fanout =
  let n = n_of t in
  let picked = Hashtbl.create fanout in
  let rec go acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else
      let p = Rng.int t.env.Env.rng n in
      if p = me t || Hashtbl.mem picked p then go acc remaining (guard - 1)
      else begin
        Hashtbl.add picked p ();
        go (p :: acc) (remaining - 1) (guard - 1)
      end
  in
  go [] (min fanout (n - 1)) (8 * n)

let gossip_ttl t fanout =
  (* enough hops for coverage w.h.p.: ceil(log_fanout n) + 1 *)
  let n = float_of_int (n_of t) in
  let f = float_of_int (max 2 fanout) in
  int_of_float (ceil (log n /. log f)) + 1

let send_body t txs ~bh =
  match t.config.Config.dissemination with
  | Config.Clique -> bcast t (Msg.Body { body_hash = bh; txs; ttl = 0 })
  | Config.Gossip fanout ->
      let ttl = gossip_ttl t fanout in
      multicast t ~dsts:(gossip_peers t fanout)
        (Msg.Body { body_hash = bh; txs; ttl = ttl - 1 })

let broadcast_body t txs ~bh =
  Hashtbl.replace t.own_in_flight bh ();
  send_body t txs ~bh

(* Pre-disseminate upcoming block bodies as soon as we expect to be
   the next proposer (§6.1.1: "a node broadcasts a block as soon as
   the block is ready"). With [pipeline_depth] > 1 several bodies are
   shipped ahead, overlapping their dissemination with earlier
   rounds — the effect §7.2.1 credits for larger clusters' tps. *)
let pre_disseminate t =
  while
    Queue.length t.prepared < t.config.Config.pipeline_depth
    && Hashtbl.length t.own_in_flight < t.config.Config.max_outstanding
  do
    let txs, bh, at = build_body t in
    Queue.push (txs, bh, at) t.prepared;
    if t.config.Config.separate_bodies then broadcast_body t txs ~bh
  done

let take_prepared t =
  match Queue.peek_opt t.prepared with
  | Some p -> p
  | None ->
      let txs, bh, at = build_body t in
      Queue.push (txs, bh, at) t.prepared;
      if t.config.Config.separate_bodies then broadcast_body t txs ~bh;
      (txs, bh, at)

(* Build and sign our proposal for a round on top of [prev_hash]. The
   body is kept in [prepared] until the block is actually appended, so
   a failed round re-proposes the same transactions. A body that fails
   our own external-validity check (a faulty client slipped garbage
   into the pool) is discarded — re-proposing it would make us look
   Byzantine and waste a round per rotation. *)
let make_proposal t ~round ~prev_hash =
  let rec pick tries =
    let txs, bh, at = take_prepared t in
    let header =
      { Header.round;
        proposer = me t;
        prev_hash;
        body_hash = bh;
        tx_count = Array.length txs;
        body_size = body_bytes txs }
    in
    if tries > 0 && not (t.valid { Block.header = header; txs }) then begin
      incr_c t "own_invalid_bodies_discarded";
      (match Queue.peek_opt t.prepared with
      | Some (_, bh', _) when String.equal bh' bh ->
          ignore (Queue.pop t.prepared);
          Hashtbl.remove t.own_in_flight bh
      | _ -> ());
      pick (tries - 1)
    end
    else (txs, bh, at, header)
  in
  match Hashtbl.find_opt t.my_signed (round, prev_hash) with
  | Some (sh, txs) ->
      (* No-double-sign discipline: we already signed this
         (round, prev_hash) slot — e.g. a piggybacked header whose
         round came back, or a truncated round re-run after recovery.
         Re-serve the archived header verbatim: signing different
         content for an already-signed slot is precisely what
         accountability evidence convicts, so an honest node never
         does it. *)
      let bh = sh.Types.header.Header.body_hash in
      let in_flow =
        match Queue.peek_opt t.prepared with
        | Some (_, bh', _) -> String.equal bh bh'
        | None -> false
      in
      if t.config.Config.separate_bodies && not in_flow then begin
        (* the archived body left the normal dissemination flow
           (its block was appended then rescinded); re-disseminate *)
        ignore (store_body t txs ~at:(now t));
        send_body t txs ~bh
      end;
      let body = if t.config.Config.separate_bodies then None else Some txs in
      { Types.sh; body }
  | None ->
      let txs, _bh, _at, header = pick 8 in
      charge_sign t;
      incr_c t "signatures";
      let sh = Types.sign_header t.env.Env.registry ~signer:(me t) header in
      Hashtbl.replace t.my_signed (round, prev_hash) (sh, txs);
      let body = if t.config.Config.separate_bodies then None else Some txs in
      { Types.sh; body }

(* The proposer of round r+1, assuming round r is decided by [k]:
   used for the piggyback decision (Algorithm 2, lines 12–14, with the
   b1–b3 skip rule applied predictively). *)
let predicted_next t ~k =
  let f = f_of t in
  let recent =
    let prior = recent_proposers t (max 0 (f - 1)) in
    prior @ [ k ]
  in
  let next_round = t.round + 1 in
  Rotation.eligible t.rotation ~round:next_round ~recent
    (Rotation.successor t.rotation ~round:next_round k)

(* ---------- Byzantine equivocation (§7.4.2) ---------- *)

let equivocate_push t =
  let r = t.round in
  let prev_hash = Store.last_hash t.store in
  let variant targets =
    let txs, bh, _ = build_body t in
    (* Two empty bodies would be the *same* block — no equivocation at
       all; a real attacker makes the variants differ. *)
    let txs, bh =
      if Array.length txs = 0 then begin
        let txs = [| synth_tx t |] in
        (txs, store_body t txs ~at:(now t))
      end
      else (txs, bh)
    in
    Queue.clear t.prepared;
    let header =
      { Header.round = r;
        proposer = me t;
        prev_hash;
        body_hash = bh;
        tx_count = Array.length txs;
        body_size = body_bytes txs }
    in
    charge_sign t;
    let sh = Types.sign_header t.env.Env.registry ~signer:(me t) header in
    let body = if t.config.Config.separate_bodies then None else Some txs in
    let p = { Types.sh; body } in
    if t.config.Config.separate_bodies then
      multicast t ~dsts:targets (Msg.Body { body_hash = bh; txs; ttl = 0 });
    multicast t ~dsts:targets (Msg.Push { proposal = p })
  in
  let half_a, half_b = t.halves in
  incr_c t "equivocations";
  variant half_a;
  variant half_b

let propose t ~k =
  if k = me t then begin
    match t.behavior with
    | Equivocator -> equivocate_push t
    | Honest ->
        if t.full_mode then begin
          (* lines 6–11: the previous attempt failed — push directly *)
          let p =
            make_proposal t ~round:t.round ~prev_hash:(Store.last_hash t.store)
          in
          (match
             (Queue.peek_opt t.prepared, t.config.Config.separate_bodies)
           with
          | Some (txs, bh, _), true -> broadcast_body t txs ~bh
          | _ -> ());
          bcast t (Msg.Push { proposal = p })
        end
  end
  else if predicted_next t ~k = me t && t.behavior = Honest
          && t.config.Config.piggyback && t.config.Config.separate_bodies
  then
    (* start shipping the next body early; the header follows on the
       OBBC vote *)
    pre_disseminate t

(* ---------- proposal stash ---------- *)

let best_stash t ~k ~r =
  match Hashtbl.find_opt t.stash k with
  | Some (p, at) when p.Types.sh.Types.header.Header.round = r -> Some (p, at)
  | _ -> None

let max_stash_round t =
  Hashtbl.fold
    (fun _ (p, _) acc -> max acc p.Types.sh.Types.header.Header.round)
    t.stash (-1)

(* Does a stashed proposal extend our chain tip? Proposals that do are
   delivered eagerly; a proposal that does not is held until the timer
   expires — it is either a stale re-proposal about to be superseded
   by a fresh one, or genuine Byzantine equivocation fallout that the
   b4 path must see (so we cannot simply drop it). *)
let stash_extends_tip t (p : Types.proposal) =
  String.equal p.Types.sh.Types.header.Header.prev_hash
    (Store.last_hash t.store)

(* The full vote-1 condition for a stashed proposal: body in hand and
   matching, external validity satisfied. Used both for voting and for
   answering evidence requests — evidence(1) certifies "a valid
   message was received", not merely "a signed header exists", or a
   slow path could launder an externally-invalid block through
   evidence adoption. *)
let deliverable_body t (p : Types.proposal) =
  let h = p.Types.sh.Types.header in
  match find_body t h.Header.body_hash with
  | Some txs
    when h.Header.tx_count = Array.length txs
         && t.valid { Block.header = h; txs } ->
      Some txs
  | _ -> None

let note_proposal t (p : Types.proposal) =
  (* The stash is keyed by the header's proposer, not the transport
     sender: pull replies legitimately relay other proposers' signed
     headers, and the signature (checked below) is the authority on
     who authored the proposal. *)
  let h = p.Types.sh.Types.header in
  let owner = h.Header.proposer in
  (* Gen-guard: a proposer outside the epoch governing the proposal's
     round can never enter the stash (and so can never be voted on or
     served onward). Rounds beyond the locally complete part of the
     membership schedule are accepted charitably — a joiner catching
     up cannot yet know the schedule, and stashed entries are still
     quorum-gated before acceptance. *)
  let member_ok =
    (not (membership_known t ~round:h.Header.round))
    || is_member_at t ~round:h.Header.round owner
  in
  if owner >= 0 && owner < n_of t && not member_ok then
    incr_c t "stale_epoch_proposals_dropped";
  if owner >= 0 && owner < n_of t && member_ok then begin
    if h.Header.round >= t.round then begin
      (* Accept same-round replacements: a proposer whose earlier
         attempt was rejected re-signs its proposal on top of the block
         that actually decided, and the fresh version must supersede the
         stale one. *)
      let fresh =
        match Hashtbl.find_opt t.stash owner with
        | Some (old, _) ->
            let old_h = old.Types.sh.Types.header in
            old_h.Header.round < h.Header.round
            || (old_h.Header.round = h.Header.round
               && not (Header.equal old_h h))
        | None -> true
      in
      if fresh then begin
        charge_verify t;
        incr_c t "verifications";
        if Types.signed_header_valid t.env.Env.registry p.Types.sh then begin
          (* A replacement for the *same slot* (round and parent both
             unchanged) is not a legitimate re-proposal — it is
             equivocation, and both signatures are now in hand. *)
          (match Hashtbl.find_opt t.stash owner with
          | Some (old, _) ->
              Accountability.consider_conflict ~known_valid:true t
                old.Types.sh p.Types.sh
          | None -> ());
          Hashtbl.replace t.stash owner (p, now t);
          (match p.Types.body with
          | Some txs -> ignore (store_body t txs ~at:(now t))
          | None -> ());
          pulse_fill t
        end
      end
    end
    else
      (* A proposal for a round we already closed: useless for
         progress, but if it conflicts with the block we appended for
         that slot it is the other half of an equivocation — the main
         way a node that saw only one variant directly learns of the
         fork. *)
      match (Store.get t.store h.Header.round,
             Hashtbl.find_opt t.signed_headers h.Header.round)
      with
      | Some b, Some sh when b.Block.header.Header.proposer = owner ->
          Accountability.consider_conflict t sh p.Types.sh
      | _ -> ()
  end

(* ---------- abortable waits ---------- *)

let wait_chunk = Time.ms 5

(* Wait for the next arrival pulse, bounded by [deadline]. Returns
   false once the deadline passed. Raises [Race.Aborted] on panic. *)
let wait_pulse t ~deadline ~abort =
  Race.check ~abort;
  let current = now t in
  if current >= deadline then false
  else begin
    if Ivar.is_filled t.pulse then t.pulse <- Ivar.create (engine t);
    let timeout = min wait_chunk (deadline - current) in
    ignore (Ivar.read_timeout t.pulse ~timeout);
    Race.check ~abort;
    true
  end

let rec obtain_proposal t ~k ~r ~deadline ~abort =
  match best_stash t ~k ~r with
  | Some (p, _) as x when stash_extends_tip t p || now t >= deadline -> x
  | _ ->
      if wait_pulse t ~deadline ~abort then
        obtain_proposal t ~k ~r ~deadline ~abort
      else best_stash t ~k ~r

let rec obtain_body t ~hash ~deadline ~abort =
  match find_body t hash with
  | Some txs -> Some txs
  | None ->
      if wait_pulse t ~deadline ~abort then obtain_body t ~hash ~deadline ~abort
      else None

let request t ~r ~timeout ~abort ~until =
  bcast t (Msg.Req { round = r });
  let deadline = now t + timeout in
  let rec wait () =
    if (not (until ())) && wait_pulse t ~deadline ~abort then wait ()
  in
  wait ()

(* ---------- OBBC wiring ---------- *)

let obbc_for t ~r ~attempt ~k =
  let key = (t.era, r, attempt) in
  match Hashtbl.find_opt t.open_obbcs key with
  | Some o -> o
  | None ->
      let era = t.era in
      let skey = Msg.ob_key ~era ~round:r ~attempt in
      (* Per-epoch quorum: the OBBC of round r counts votes against the
         member count of the epoch governing r, and drops frames from
         non-members on the receive side — a stale-epoch node's vote is
         never counted under the wrong epoch's quorum. By the time this
         node runs round r its schedule is complete for r (the
         activation lag is one past the definiteness horizon). *)
      let e = epoch_at t r in
      let qn, qf = epoch_quorum_params t e in
      let channel =
        Channel.of_hub t.env.Env.hub ~key:skey ~net:t.env.Env.net
          ~self:(me t) ~n:qn
          ~accept:(fun src ->
            Epoch.is_member e src
            ||
            (incr_c t "stale_epoch_votes_dropped";
             false))
          ~f:qf ~encode:Msg.encode
          ~inj:(fun m -> Msg.Ob { era; round = r; attempt; m })
          ~prj:(function
            | Msg.Ob { m; _ } -> m
            | _ -> assert false)
      in
      let coin =
        Coin.make ~seed:t.env.Env.seed
          ~instance:(Printf.sprintf "%s/%s" t.env.Env.label skey)
      in
      let o =
        Obbc.create (engine t) ~recorder:(recorder t) ~coin ~channel
          ~validate_evidence:(fun ev ->
            match Types.decode_signed_header_slice ev with
            | Some sh ->
                sh.Types.header.Header.round = r
                && sh.Types.header.Header.proposer = k
                && Types.signed_header_valid t.env.Env.registry sh
            | None -> false)
          ~my_evidence:(fun () ->
            match best_stash t ~k ~r with
            | Some (p, _) when deliverable_body t p <> None ->
                Some (Types.encode_signed_header p.Types.sh)
            | _ -> None)
          ~on_pgd:(fun ~src:_ p -> note_proposal t p)
          ?obs:t.env.Env.obs ~obs_round:r
          ~obs_worker:t.env.Env.worker ()
      in
      Hashtbl.replace t.open_obbcs key o;
      o

(* ---------- pull phase (Algorithm 1, lines 22–27) ---------- *)

(* The decision was 1 but we miss the header and/or body: first try
   the evidence OBBC collected (it carries the signed header), then
   pull from peers until a valid reply arrives. *)
let recover_delivery t ~k ~r ~obbc ~abort =
  (match Obbc.evidence_received obbc with
  | Some ev -> (
      match Types.decode_signed_header ev with
      | Some sh
        when sh.Types.header.Header.round = r
             && sh.Types.header.Header.proposer = k ->
          note_proposal t { Types.sh; body = None }
      | _ -> ())
  | None -> ());
  let delivered () =
    match best_stash t ~k ~r with
    | Some (p, at) -> (
        match find_body t p.Types.sh.Types.header.Header.body_hash with
        | Some txs -> Some (p, txs, at)
        | None -> None)
    | None -> None
  in
  let rec loop () =
    Race.check ~abort;
    match delivered () with
    | Some x -> x
    | None ->
        incr_c t "pulls";
        request t ~r ~timeout:(Timer.current t.timer) ~abort
          ~until:(fun () -> delivered () <> None);
        loop ()
  in
  loop ()

(* ---------- WRB delivery (Algorithm 1) ---------- *)

let should_piggyback t ~k =
  t.config.Config.piggyback && t.behavior = Honest
  && predicted_next t ~k = me t

let deliver t ~k =
  let r = t.round in
  let abort = Some t.abort in
  let start = now t in
  let deadline = start + Timer.current t.timer in
  let prop =
    if Detector.suspected t.detector k then None
    else obtain_proposal t ~k ~r ~deadline ~abort
  in
  let ready =
    match prop with
    | None -> None
    | Some (p, arr) -> (
        let h = p.Types.sh.Types.header in
        match obtain_body t ~hash:h.Header.body_hash ~deadline ~abort with
        | Some txs
          when h.Header.tx_count = Array.length txs
               && t.valid { Block.header = h; txs } ->
            Some (p, txs, arr)
        | _ -> None)
  in
  (* Timer tuning tracks time-to-readiness (header AND body), not just
     the header: with piggybacked headers the header delay is ~0 while
     the body is still on the wire, and an EMA of the header delay
     alone would shrink the timeout below the dissemination time. *)
  let ready_at = now t in
  let vote = ready <> None in
  let pgd =
    match ready with
    | Some (p, _, _) when should_piggyback t ~k ->
        Some
          (make_proposal t ~round:(r + 1)
             ~prev_hash:(Header.hash p.Types.sh.Types.header))
    | _ -> None
  in
  let obbc = obbc_for t ~r ~attempt:t.attempt ~k in
  let an, _ = epoch_quorum_params t (epoch_at t r) in
  Cpu.charge t.env.Env.cpu (an * t.config.Config.vote_cpu);
  let decision = Obbc.propose obbc ?abort ~vote ~pgd () in
  if not decision then begin
    Timer.on_timeout t.timer;
    obs_span t ~name:"wrb_nil" ~round:r
      ~args:[ ("proposer", string_of_int k) ]
      ~t_begin:start ~t_end:(now t) ();
    None
  end
  else begin
    let recovered = ready = None in
    let p, txs, arr =
      match ready with
      | Some x -> x
      | None -> recover_delivery t ~k ~r ~obbc ~abort
    in
    Timer.on_success t.timer ~delay:(max 0 (ready_at - start));
    if Fl_obs.Obs.enabled t.env.Env.obs then begin
      obs_span t ~name:"wrb_deliver" ~round:r
        ~args:
          [ ("proposer", string_of_int k);
            ("vote", string_of_bool vote);
            ("recovered", string_of_bool recovered) ]
        ~t_begin:start ~t_end:(now t) ();
      if recovered then
        obs_span t ~name:"recover_delivery" ~round:r
          ~args:[ ("proposer", string_of_int k) ]
          ~t_begin:ready_at ~t_end:(now t) ()
    end;
    Some (p, txs, arr)
  end

(* ---------- dissemination fibers ---------- *)

let spawn_fibers t =
  let eng = engine t and hub = t.env.Env.hub in
  Fiber.spawn eng (fun () ->
      let box = Hub.box hub "push" in
      while true do
        match Mailbox.recv box with
        | _src, Msg.Push { proposal } -> note_proposal t proposal
        | _ -> ()
      done);
  Fiber.spawn eng (fun () ->
      let box = Hub.box hub "body" in
      while true do
        match Mailbox.recv box with
        | _src, Msg.Body { txs; ttl; _ } ->
            let fresh = not (Hashtbl.mem t.bodies (Block.body_hash txs)) in
            let bh = store_body t txs ~at:(now t) in
            (match t.config.Config.dissemination with
            | Config.Gossip fanout when fresh && ttl > 0 ->
                multicast t ~dsts:(gossip_peers t fanout)
                  (Msg.Body { body_hash = bh; txs; ttl = ttl - 1 })
            | _ -> ())
        | _ -> ()
      done);
  Fiber.spawn eng (fun () ->
      let box = Hub.box hub "reply" in
      while true do
        match Mailbox.recv box with
        | _src, Msg.Reply { round; proposal; txs } ->
            ignore (store_body t txs ~at:(now t));
            note_proposal t proposal;
            (* Remember whole fetched blocks for the catch-up sync. *)
            let h = proposal.Types.sh.Types.header in
            if
              round = h.Header.round
              && round >= t.round
              && (not (Hashtbl.mem t.fetched round))
              && Types.signed_header_valid t.env.Env.registry proposal.Types.sh
            then begin
              Hashtbl.replace t.fetched round (proposal.Types.sh, txs);
              pulse_fill t
            end
        | _ -> ()
      done)
