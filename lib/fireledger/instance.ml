open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus

type behavior = Honest | Equivocator

type block_times = { a : Time.t; b : Time.t; c : Time.t; d : Time.t }

type output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
  on_epoch : Epoch.t -> unit;
      (** a successor epoch was scheduled from a definite block — fires
          identically (same epoch, same order) on every correct node *)
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
      (** this node adopted a state-transfer snapshot *)
}

let null_output =
  { on_tentative = (fun ~round:_ _ -> ());
    on_definite = (fun ~round:_ _ ~times:_ -> ());
    on_recovery = (fun ~round:_ ~rescinded:_ -> ());
    on_evidence = (fun _ -> ());
    on_epoch = (fun _ -> ());
    on_transfer = (fun ~upto:_ ~chunks:_ ~retries:_ -> ()) }

type pending_times = { pt_a : Time.t; pt_b : Time.t; pt_c : Time.t }

type t = {
  env : Env.t;
  config : Config.t;
  behavior : behavior;
  valid : Block.t -> bool;
  output : output;
  store : Store.t;
  mempool : Mempool.t;
  timer : Timer.t;
  detector : Detector.t;
  rotation : Rotation.t;
  (* dissemination state *)
  bodies : (string, Tx.t array) Hashtbl.t;
  body_arrival : (string, Time.t) Hashtbl.t;
  stash : (int, Types.proposal * Time.t) Hashtbl.t;  (* per proposer *)
  fetched : (int, Types.signed_header * Tx.t array) Hashtbl.t;
      (* pull replies keyed by round — feeds the catch-up sync *)
  signed_headers : (int, Types.signed_header) Hashtbl.t;  (* per round *)
  my_signed : (int * string, Types.signed_header * Tx.t array) Hashtbl.t;
      (* every header this node ever signed, keyed by
         (round, prev_hash): the no-double-sign discipline that makes
         same-slot conflicts provable misbehavior *)
  evidence_log : (string, Types.evidence) Hashtbl.t;  (* by digest *)
  mutable pulse : unit Ivar.t;  (* wakes WRB waits on any arrival *)
  prepared : (Tx.t array * string * Time.t) Queue.t;
      (* bodies built (and shipped) ahead of our proposing turns; the
         head is the next block we will propose *)
  own_in_flight : (string, unit) Hashtbl.t;  (* flow control (§7.2) *)
  pool_txs : (string, (Tx.t * int) array) Hashtbl.t;
      (* body_hash -> the client (mempool-drained) transactions in a
         body we built, with their fees, kept until the block is
         definite: a recovery that rescinds one of our blocks re-queues
         exactly these so an admitted transaction never vanishes
         silently *)
  (* round state *)
  mutable round : int;
  mutable attempt : int;
  mutable era : int;  (* completed recoveries *)
  mutable proposer : int;
  mutable full_mode : bool;
  mutable definite_upto : int;
  open_obbcs : (int * int * int, Msg.ob_payload Obbc.t) Hashtbl.t;
  times : (int, pending_times) Hashtbl.t;
  (* panic and recovery *)
  mutable abort : unit Ivar.t;
  mutable pending_proofs : Types.proof list;
  handled_recoveries : (int, unit) Hashtbl.t;
  version_boxes : (int, Types.version Mailbox.t) Hashtbl.t;
  mutable rb : Types.proof Fl_broadcast.Bracha.t option;
  mutable ab : Types.version Pbft.t option;
  mutable evd : Types.evidence Fl_broadcast.Bracha.t option;
  mutable rb_tag : int;
  mutable evd_tag : int;
  (* workload *)
  mutable next_tx_id : int;
  halves : int list * int list;  (* equivocation split *)
  mutable stopped : bool;
  (* membership epochs *)
  genesis_epoch : Epoch.t;
  mutable epochs : Epoch.t list;  (* newest (highest activation) first *)
  mutable active_epoch : Epoch.t;  (* the epoch governing [round] *)
  mutable was_member : bool;  (* ever inside the active membership *)
  mutable handoff_done : bool;  (* leaver's one-shot mempool handoff *)
  mutable reconfig_fibers : bool;  (* snap/handoff fibers spawned *)
  mutable wedged : bool;
      (* watchdog verdict: parked in a round whose consensus the
         cluster already completed — pull the block instead *)
  mutable snap_cache : (int * string) option;
      (* (definite_upto + 1, encoded snapshot) served to joiners *)
  (* durability *)
  persist : Fl_persist.Node.t option;
  mutable boot_delay : Time.t;
      (* time the boot path spends reading the media back (disk scan +
         per-block hashing); charged before the main loop starts *)
}

(* ---------- small helpers ---------- *)

let n_of t = t.config.Config.n
let f_of t = t.config.Config.f

(* ---------- membership epochs ---------- *)

(* The epoch governing [round]: the newest scheduled epoch whose
   activation is at or below it. [t.epochs] is newest-first and always
   ends in the genesis epoch (activation 0). *)
let epoch_at t round =
  let rec go = function
    | [] -> t.genesis_epoch
    | e :: rest -> if e.Epoch.activation <= round then e else go rest
  in
  go t.epochs

(* Epochs are scheduled from definite blocks with a fixed lag of
   f + 3 rounds, one past the definiteness horizon (f + 2) — so the
   local schedule is provably complete for every round at or below
   this bound, and incomplete knowledge is only possible beyond it. *)
let membership_known t ~round = round <= t.definite_upto + f_of t + 3

let is_member_at t ~round id = Epoch.is_member (epoch_at t round) id

(* Quorum parameters of an epoch. Full-universe epochs use the
   configured (n, f) verbatim (a config may pin a non-default f);
   partial epochs re-derive them from the member count, never
   exceeding the configured Byzantine budget. *)
let epoch_quorum_params t e =
  if Epoch.n e = n_of t then (n_of t, f_of t)
  else (Epoch.n e, min (f_of t) (Epoch.f e))

let me t = t.env.Env.me
let engine t = t.env.Env.engine
let recorder t = t.env.Env.recorder
let now t = Engine.now (engine t)
let incr_c t name = Fl_metrics.Recorder.incr (recorder t) name

let obs_span t ~name ?round ?args ~t_begin ~t_end () =
  Fl_obs.Obs.span t.env.Env.obs ~cat:"fireledger" ~name ~node:(me t)
    ~worker:t.env.Env.worker ?round ?args ~t_begin ~t_end ()

let obs_instant t ~name ?round ?args () =
  Fl_obs.Obs.instant t.env.Env.obs ~cat:"fireledger" ~name ~node:(me t)
    ~worker:t.env.Env.worker ?round ?args ~at:(now t) ()

let charge_hash t ~bytes =
  Cpu.charge t.env.Env.cpu
    (Fl_crypto.Cost_model.hash_cost t.env.Env.cost ~bytes)

let charge_sign t =
  Cpu.charge t.env.Env.cpu
    (int_of_float t.env.Env.cost.Fl_crypto.Cost_model.sign_const_ns)

let charge_verify t =
  Cpu.charge t.env.Env.cpu
    (int_of_float t.env.Env.cost.Fl_crypto.Cost_model.verify_const_ns)

let body_bytes txs = Array.fold_left (fun acc tx -> acc + tx.Tx.size) 0 txs

let send t ~dst m =
  Net.send t.env.Env.net ~src:(me t) ~dst (Msg.encode m)

let bcast t m = Net.broadcast t.env.Env.net ~src:(me t) (Msg.encode m)

let multicast t ~dsts m =
  Net.multicast t.env.Env.net ~src:(me t) ~dsts (Msg.encode m)

let pulse_fill t = ignore (Ivar.try_fill t.pulse ())

(* Last [count] proposers of the stored chain, oldest first. *)
let recent_proposers t count =
  let len = Store.length t.store in
  let rec go r acc =
    if r >= len then List.rev acc
    else
      match Store.get t.store r with
      | Some b -> go (r + 1) (b.Block.header.Header.proposer :: acc)
      | None -> List.rev acc
  in
  go (max 0 (len - count)) []

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

(* ---------- fork accountability ---------- *)

(* Record equivocation evidence: two valid headers signed by the same
   proposer for one (round, prev_hash) slot. Deduped by canonical
   digest; the first local sighting is reliably broadcast so every
   correct node converges on the same evidence set even when only a
   subset directly observed the conflict. *)
let note_evidence ?(relay = true) t ev =
  if Types.evidence_valid t.env.Env.registry ev then begin
    let digest = Types.evidence_digest ev in
    if not (Hashtbl.mem t.evidence_log digest) then begin
      Hashtbl.replace t.evidence_log digest ev;
      incr_c t "evidence_collected";
      obs_instant t ~name:"evidence"
        ~round:ev.Types.first.Types.header.Header.round
        ~args:[ ("accused", string_of_int ev.Types.accused) ]
        ();
      t.output.on_evidence ev;
      if relay then begin
        t.evd_tag <- t.evd_tag + 1;
        match t.evd with
        | Some b -> Fl_broadcast.Bracha.broadcast b ~tag:t.evd_tag ev
        | None -> ()
      end
    end
  end

(* Two signed headers claiming the same slot with different content:
   evidence if the signatures check out. [known_valid] skips
   re-verifying a signature that was already checked on arrival. *)
let consider_conflict ?(known_valid = false) t (sha : Types.signed_header)
    (shb : Types.signed_header) =
  let ha = sha.Types.header and hb = shb.Types.header in
  if
    ha.Header.proposer = hb.Header.proposer
    && ha.Header.round = hb.Header.round
    && String.equal ha.Header.prev_hash hb.Header.prev_hash
    && not (Header.equal ha hb)
  then begin
    if not known_valid then begin
      charge_verify t;
      charge_verify t
    end;
    note_evidence t (Types.make_evidence ~accused:ha.Header.proposer sha shb)
  end

(* ---------- proposal stash ---------- *)

let best_stash t ~k ~r =
  match Hashtbl.find_opt t.stash k with
  | Some (p, at) when p.Types.sh.Types.header.Header.round = r -> Some (p, at)
  | _ -> None

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
  match
    if String.equal h.Header.body_hash (Block.body_hash [||]) then Some [||]
    else Hashtbl.find_opt t.bodies h.Header.body_hash
  with
  | Some txs
    when h.Header.tx_count = Array.length txs
         && t.valid { Block.header = h; txs } ->
      Some txs
  | _ -> None

let note_proposal t ~src (p : Types.proposal) =
  ignore src;
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
              consider_conflict ~known_valid:true t old.Types.sh p.Types.sh
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
          consider_conflict t sh p.Types.sh
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

(* Empty blocks all commit to the same body hash; synthesising the
   empty body instead of tracking it in [bodies] avoids the shared
   entry being dropped when one of the identical blocks is appended.
   Non-empty bodies are unique (transaction ids are node-prefixed). *)
let empty_body_hash = Block.body_hash [||]

let find_body t hash =
  if String.equal hash empty_body_hash then Some [||]
  else Hashtbl.find_opt t.bodies hash

let rec obtain_body t ~hash ~deadline ~abort =
  match find_body t hash with
  | Some txs -> Some txs
  | None ->
      if wait_pulse t ~deadline ~abort then obtain_body t ~hash ~deadline ~abort
      else None

(* ---------- OBBC wiring ---------- *)

let obbc_key t ~r ~attempt = (t.era, r, attempt)

let obbc_for t ~r ~attempt ~k =
  let key = obbc_key t ~r ~attempt in
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
          ~on_pgd:(fun ~src p -> note_proposal t ~src p)
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
          note_proposal t ~src:k { Types.sh; body = None }
      | _ -> ())
  | None -> ());
  let rec loop () =
    Race.check ~abort;
    match best_stash t ~k ~r with
    | Some (p, at)
      when find_body t p.Types.sh.Types.header.Header.body_hash <> None -> (
        match find_body t p.Types.sh.Types.header.Header.body_hash with
        | Some txs -> (p, txs, at)
        | None -> assert false)
    | _ ->
        incr_c t "pulls";
        bcast t (Msg.Req { round = r });
        let deadline = now t + Timer.current t.timer in
        let rec wait () =
          if wait_pulse t ~deadline ~abort then
            match best_stash t ~k ~r with
            | Some (p, _)
              when find_body t p.Types.sh.Types.header.Header.body_hash
                   <> None ->
                ()
            | _ -> wait ()
        in
        wait ();
        loop ()
  in
  loop ()

(* ---------- WRB delivery (Algorithm 1) ---------- *)

let should_piggyback t ~k =
  t.config.Config.piggyback && t.behavior = Honest
  && predicted_next t ~k = me t

let wrb_deliver t ~k =
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

(* ---------- reconfiguration: state transfer and tx handoff ---------- *)

let snap_chunk_bytes = 8192

(* Donor side: serve the definite prefix as a chunked, CRC-framed
   {!Fl_persist.Snapshot} (the exact on-disk encoding, shipped over
   the wire-true transport). The stream id is [definite_upto + 1] at
   build time, so a joiner that resumes mid-transfer can tell whether
   a later donor is continuing the same snapshot or starting a newer
   one. The encoded snapshot is cached per stream id — retries and
   multiple joiners rebuild nothing. *)
let spawn_snap_server t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "snapreq" in
      while true do
        match Mailbox.recv box with
        | src, Msg.Snap_req { from_chunk } -> (
            if t.definite_upto < 0 then
              (* nothing durable yet: an explicit empty reply beats
                 silence — the joiner backs off instead of timing out *)
              send t ~dst:src
                (Msg.Snap_chunk
                   { sid = 0;
                     seq = 0;
                     total = 0;
                     data = Fl_wire.Codec.Slice.of_string "" })
            else
              let sid = t.definite_upto + 1 in
              let encoded =
                match t.snap_cache with
                | Some (s, enc) when s = sid -> Some enc
                | _ -> (
                    match
                      Fl_persist.Snapshot.build ~store:t.store
                        ~upto:t.definite_upto ~era:t.era ~app:"" ~app_hash:""
                    with
                    | None -> None
                    | Some snap ->
                        let enc = Fl_persist.Snapshot.encode snap in
                        charge_hash t ~bytes:(String.length enc);
                        t.snap_cache <- Some (sid, enc);
                        Some enc)
              in
              match encoded with
              | None -> ()
              | Some enc ->
                  let len = String.length enc in
                  let total = (len + snap_chunk_bytes - 1) / snap_chunk_bytes in
                  incr_c t "snap_requests_served";
                  for seq = max 0 from_chunk to total - 1 do
                    let off = seq * snap_chunk_bytes in
                    (* borrowed view of the cached encoding: the chunk
                       bytes are blitted once, straight into the frame *)
                    let data =
                      Fl_wire.Codec.Slice.of_sub enc ~pos:off
                        ~len:(min snap_chunk_bytes (len - off))
                    in
                    send t ~dst:src (Msg.Snap_chunk { sid; seq; total; data })
                  done)
        | _ -> ()
      done)

(* Receive a leaving node's pending transactions into our pool at
   their original fee priority — the conservation half of a Leave. *)
let spawn_handoff_fiber t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "handoff" in
      while true do
        match Mailbox.recv box with
        | _src, Msg.Tx_handoff { txs; fees } ->
            Array.iteri
              (fun i tx ->
                incr_c t "txs_handoff_in";
                ignore (Mempool.readmit t.mempool tx ~fee:fees.(i)))
              txs;
            pulse_fill t
        | _ -> ()
      done)

(* The snap/handoff fibers are spawned lazily — only on instances that
   can actually see reconfiguration (a partial genesis membership, or
   a scheduled epoch) — so fully static clusters run a byte-identical
   event schedule to the pre-epoch code. *)
let ensure_reconfig_fibers t =
  if not t.reconfig_fibers then begin
    t.reconfig_fibers <- true;
    spawn_snap_server t;
    spawn_handoff_fiber t
  end

(* ---------- epoch scheduling (from definite blocks) ---------- *)

let schedule_epoch t ~round changes =
  let head = List.hd t.epochs in
  let activation = round + f_of t + 3 in
  match Epoch.succeed ~universe:(n_of t) head changes ~activation with
  | None -> ()
  | Some e ->
      t.epochs <- e :: t.epochs;
      incr_c t "epochs_scheduled";
      obs_instant t ~name:"epoch_scheduled" ~round
        ~args:
          [ ("epoch", string_of_int e.Epoch.index);
            ("activation", string_of_int e.Epoch.activation);
            ("members", string_of_int (Epoch.n e)) ]
        ();
      ensure_reconfig_fibers t;
      t.output.on_epoch e

let note_reconfig t ~round (b : Block.t) =
  match Epoch.changes_of_block b with
  | [] -> ()
  | changes -> schedule_epoch t ~round changes

(* Rebuild the epoch schedule from the definite chain prefix — used
   when a whole chain is adopted at once (boot from disk, state
   transfer). Bodies inside the prune window are sufficient: epochs
   are only ever scheduled from definite blocks. *)
let rebuild_epochs t =
  t.epochs <- [ t.genesis_epoch ];
  for r = 0 to t.definite_upto do
    match Store.get t.store r with
    | Some b -> note_reconfig t ~round:r b
    | None -> ()
  done;
  let e = epoch_at t t.round in
  t.active_epoch <- e;
  Rotation.set_members t.rotation (Epoch.members e)

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
        Fl_metrics.Recorder.mark (recorder t) "blocks_definite" ~now:d 1;
        Fl_metrics.Recorder.mark (recorder t) "txs_definite" ~now:d
          b.Block.header.Header.tx_count;
        if b.Block.header.Header.proposer = me t then begin
          Hashtbl.remove t.own_in_flight b.Block.header.Header.body_hash;
          Hashtbl.remove t.pool_txs b.Block.header.Header.body_hash
        end;
        (match t.persist with
        | Some per -> Fl_persist.Node.log_definite per ~upto:r ~era:t.era b
        | None -> ());
        note_reconfig t ~round:r b;
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
      consider_conflict ~known_valid:true t st.Types.sh p.Types.sh
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
  Fl_metrics.Recorder.mark (recorder t) "blocks_tentative" ~now:c 1;
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

(* ---------- recovery (Algorithm 3) ---------- *)

let version_box t r =
  match Hashtbl.find_opt t.version_boxes r with
  | Some b -> b
  | None ->
      let b = Mailbox.create (engine t) in
      Hashtbl.add t.version_boxes r b;
      b

let own_version t r =
  let f = f_of t in
  let s = max 0 (r - (f + 1)) in
  if t.round < r - 1 then
    { Types.recovery_round = r; origin = me t; blocks = [] }
  else
    let blocks =
      Store.sub t.store ~from:s
      |> List.filter_map (fun b ->
             match
               Hashtbl.find_opt t.signed_headers b.Block.header.Header.round
             with
             | Some sh -> Some (b, sh.Types.signature)
             | None -> None)
    in
    { Types.recovery_round = r; origin = me t; blocks }

let recovery t r =
  incr_c t "recoveries";
  let recovery_start = now t in
  obs_instant t ~name:"recovery_start" ~round:r
    ~args:[ ("era", string_of_int t.era) ]
    ();
  Fl_metrics.Recorder.mark (recorder t) "recoveries" ~now:(now t) 1;
  Detector.invalidate t.detector;
  let f = f_of t in
  let v = own_version t r in
  (match t.ab with Some ab -> Pbft.submit ab v | None -> assert false);
  let box = version_box t r in
  let anchor round =
    if round < 0 then Some Block.genesis_hash
    else
      match Store.get t.store round with
      | Some b -> Some (Block.hash b)
      | None -> None
  in
  let seen = Hashtbl.create 8 in
  let version_headers = Hashtbl.create 16 in
      (* per recovery: headers seen in received versions, by round *)
  let collected = ref [] in
  let count = ref 0 in
  (* The version quorum counts against the membership of the epoch
     governing the recovery round; versions from non-members (a
     departed node replaying stale state) are discarded. *)
  let an, af = epoch_quorum_params t (epoch_at t r) in
  while !count < an - af do
    let vj = Mailbox.recv box in
    if
      (not (Hashtbl.mem seen vj.Types.origin))
      && ((not (membership_known t ~round:r))
         || is_member_at t ~round:r vj.Types.origin)
    then begin
      Hashtbl.add seen vj.Types.origin ();
      (* price of authenticating a received version (Table 1's
         (n−f)·chain-size signature checks) *)
      List.iter
        (fun (b, _) ->
          charge_verify t;
          charge_hash t ~bytes:b.Block.header.Header.body_size)
        vj.Types.blocks;
      (* accountability sweep: a block claiming a slot differently
         from our own chain, or from another received version, is half
         of an equivocation — recovery is where a node that saw only
         one variant on the wire learns of the fork, because the n−f
         version quorum cannot exclude every holder of either variant *)
      List.iter
        (fun (b, s) ->
          let rb = b.Block.header.Header.round in
          let sh = { Types.header = b.Block.header; signature = s } in
          (match
             (Store.get t.store rb, Hashtbl.find_opt t.signed_headers rb)
           with
          | Some local, Some local_sh
            when local.Block.header.Header.proposer
                 = b.Block.header.Header.proposer ->
              consider_conflict t local_sh sh
          | _ -> ());
          (* the other variant may never have been acceptable here —
             built on a tip we did not hold — and still sit in the
             stash *)
          (match Hashtbl.find_opt t.stash b.Block.header.Header.proposer with
          | Some (st, _) when st.Types.sh.Types.header.Header.round = rb ->
              consider_conflict t st.Types.sh sh
          | _ -> ());
          let prior =
            match Hashtbl.find_opt version_headers rb with
            | Some l -> l
            | None -> []
          in
          List.iter (fun prior_sh -> consider_conflict t prior_sh sh) prior;
          if
            not
              (List.exists
                 (fun p -> Header.equal p.Types.header b.Block.header)
                 prior)
          then Hashtbl.replace version_headers rb (sh :: prior))
        vj.Types.blocks;
      match
        Types.validate_version t.env.Env.registry ~f:af ~n:(n_of t) ~anchor vj
      with
      | Types.Adoptable ->
          collected := vj :: !collected;
          incr count
      | Types.Unanchored ->
          (* counts toward the quorum but cannot be adopted here *)
          incr count
      | Types.Invalid -> incr_c t "invalid_versions"
    end
  done;
  let adoptable = List.rev !collected in
  let best =
    List.fold_left
      (fun best v ->
        if v.Types.blocks = [] then best
        else
          match best with
          | Some b when Types.version_tip b >= Types.version_tip v -> best
          | _ -> Some v)
      None adoptable
  in
  let rescinded = ref 0 in
  (match best with
  | None -> ()
  | Some v -> (
      let first_round =
        match v.Types.blocks with
        | (b, _) :: _ -> b.Block.header.Header.round
        | [] -> assert false
      in
      (* count rounds whose block changes *)
      List.iter
        (fun (b, _) ->
          match Store.get t.store b.Block.header.Header.round with
          | Some old when not (String.equal (Block.hash old) (Block.hash b))
            ->
              incr rescinded
          | _ -> ())
        v.Types.blocks;
      let old_len = Store.length t.store in
      let new_tip = Types.version_tip v in
      if new_tip + 1 < old_len then rescinded := !rescinded + (old_len - new_tip - 1);
      (* Our own rescinded blocks may carry client transactions drained
         from the mempool; collect them before the store surgery so
         they can be re-queued at their original fee priority. *)
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
          | Some old when not (String.equal (Block.hash old) (Block.hash b))
            ->
              collect_mine old
          | _ -> ())
        v.Types.blocks;
      for r = new_tip + 1 to old_len - 1 do
        match Store.get t.store r with
        | Some old -> collect_mine old
        | None -> ()
      done;
      match
        Store.replace_suffix t.store ~from:first_round
          (List.map fst v.Types.blocks)
      with
      | Ok () ->
          List.iter
            (Array.iter (fun (tx, fee) ->
                 incr_c t "txs_readmitted";
                 ignore (Mempool.readmit t.mempool tx ~fee)))
            !readmit;
          (match t.persist with
          | Some per ->
              (* the WAL must mirror the store surgery: a truncate
                 record, then the adopted suffix re-appended *)
              Fl_persist.Node.log_truncate per ~from:first_round;
              List.iter
                (fun (b, s) ->
                  Fl_persist.Node.log_append per ~block:b ~signature:s)
                v.Types.blocks
          | None -> ());
          List.iter
            (fun (b, s) ->
              Hashtbl.replace t.signed_headers b.Block.header.Header.round
                { Types.header = b.Block.header; signature = s };
              Hashtbl.remove t.times b.Block.header.Header.round)
            v.Types.blocks
      | Error e ->
          (* validated beforehand; never expected *)
          Logs.err (fun m ->
              m "instance %d: recovery adoption failed: %a" (me t)
                Store.pp_error e)));
  t.output.on_recovery ~round:r ~rescinded:!rescinded;
  Fl_metrics.Recorder.add (recorder t) "blocks_rescinded" !rescinded;
  Hashtbl.remove t.version_boxes r;
  t.era <- t.era + 1;
  (match t.persist with
  | Some per ->
      (* the completed-recovery count must survive a crash, or the
         restarted node re-keys its OBBC channels under a stale era *)
      Fl_persist.Node.log_watermark per ~upto:t.definite_upto ~era:t.era
  | None -> ());
  t.round <- Store.length t.store;
  t.attempt <- 0;
  t.full_mode <- true;
  let recent = recent_proposers t f in
  let candidate =
    match Store.last t.store with
    | Some b ->
        Rotation.successor t.rotation ~round:t.round
          b.Block.header.Header.proposer
    | None -> 0
  in
  t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate;
  obs_span t ~name:"recovery" ~round:r
    ~args:
      [ ("era", string_of_int (t.era - 1));
        ("rescinded", string_of_int !rescinded);
        ("new_round", string_of_int t.round) ]
    ~t_begin:recovery_start ~t_end:(now t) ();
  mark_definite t

let enqueue_proof t proof =
  let r = Types.proof_round proof in
  if
    (not (Hashtbl.mem t.handled_recoveries r))
    && (not (List.exists (fun p -> Types.proof_round p = r) t.pending_proofs))
    && Types.proof_valid t.env.Env.registry proof
  then begin
    t.pending_proofs <- proof :: t.pending_proofs;
    ignore (Ivar.try_fill t.abort ())
  end

let handle_panics t =
  t.abort <- Ivar.create (engine t);
  let rec drain () =
    match
      List.sort
        (fun a b -> compare (Types.proof_round a) (Types.proof_round b))
        t.pending_proofs
    with
    | [] -> ()
    | proof :: rest ->
        t.pending_proofs <- rest;
        let r = Types.proof_round proof in
        if not (Hashtbl.mem t.handled_recoveries r) then begin
          Hashtbl.add t.handled_recoveries r ();
          recovery t r
        end;
        drain ()
  in
  drain ()

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

(* ---------- the main loop (Algorithm 2) ---------- *)

let nil_path t ~k =
  incr_c t "wrb_nil";
  obs_instant t ~name:"nil_round" ~round:t.round
    ~args:[ ("proposer", string_of_int k) ]
    ();
  Detector.record_timeout t.detector ~proposer:k;
  t.full_mode <- true;
  t.attempt <- t.attempt + 1;
  t.proposer <- Rotation.successor t.rotation ~round:t.round t.proposer

(* Highest round any stashed (signed) proposal claims. *)
let max_stash_round t =
  Hashtbl.fold
    (fun _ (p, _) acc -> max acc p.Types.sh.Types.header.Header.round)
    t.stash (-1)

(* Drop the tentative suffix — every stored round past the definite
   watermark. The catch-up sync uses this when a pulled canonical
   block contradicts blocks we appended before an absence: a recovery
   we never saw rescinded them, and no amount of re-pulling will link
   onto a dead branch. Definite rounds are agreed, so the canonical
   chain is guaranteed to re-link at the watermark. Our own rescinded
   proposals re-queue their client transactions at original priority
   (the conservation contract), and the WAL mirrors the surgery. *)
let rescind_tentative_suffix t =
  let from = t.definite_upto + 1 in
  let old_len = Store.length t.store in
  if from < old_len then begin
    let readmit = ref [] in
    for r = from to old_len - 1 do
      (match Store.get t.store r with
      | Some old when old.Block.header.Header.proposer = me t -> (
          let bh = old.Block.header.Header.body_hash in
          match Hashtbl.find_opt t.pool_txs bh with
          | Some batch ->
              Hashtbl.remove t.pool_txs bh;
              readmit := batch :: !readmit
          | None -> ())
      | _ -> ());
      Hashtbl.remove t.signed_headers r;
      Hashtbl.remove t.times r
    done;
    (match Store.replace_suffix t.store ~from [] with
    | Ok () -> ()
    | Error e ->
        Logs.err (fun m ->
            m "instance %d: tentative rescind failed: %a" (me t)
              Store.pp_error e));
    List.iter
      (Array.iter (fun (tx, fee) ->
           incr_c t "txs_readmitted";
           ignore (Mempool.readmit t.mempool tx ~fee)))
      !readmit;
    (match t.persist with
    | Some per -> Fl_persist.Node.log_truncate per ~from
    | None -> ());
    Fl_metrics.Recorder.add (recorder t) "blocks_rescinded" (old_len - from);
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
  let target = max_stash_round t - (f_of t + 2) in
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
      match Hashtbl.find_opt t.fetched r with
      | Some (sh, txs)
        when String.equal sh.Types.header.Header.prev_hash
               (Store.last_hash t.store)
             && sh.Types.header.Header.tx_count = Array.length txs
             && String.equal (Block.body_hash txs)
                  sh.Types.header.Header.body_hash
             && t.valid { Block.header = sh.Types.header; txs } ->
          Hashtbl.remove t.fetched r;
          charge_verify t;
          charge_hash t ~bytes:(body_bytes txs);
          accept_block t { Types.sh; body = None } txs ~header_at:(now t);
          stalls := 0
      | Some (sh, txs)
        when t.definite_upto < r - 1
             && sh.Types.header.Header.tx_count = Array.length txs
             && String.equal (Block.body_hash txs)
                  sh.Types.header.Header.body_hash
             && t.valid { Block.header = sh.Types.header; txs } ->
          (* A well-formed, proposer-signed block for our next round
             that does not link onto our tip: the tentative rounds we
             stored before the absence were rescinded behind our back.
             Drop them and resume pulling from the definite watermark
             (worst case an adversarial reply costs us re-pulling
             blocks we already had — tentative rounds only, so never
             safety). *)
          rescind_tentative_suffix t;
          stalls := 0
      | found ->
          if found <> None then Hashtbl.remove t.fetched r;
          bcast t (Msg.Req { round = r });
          let deadline = now t + pull_timeout in
          let rec wait () =
            if
              (not (Hashtbl.mem t.fetched r))
              && wait_pulse t ~deadline ~abort
            then wait ()
          in
          wait ();
          if not (Hashtbl.mem t.fetched r) then incr stalls
    done;
    (* The long absence inflated the WRB timer; rebase it on a normal
       delivery delay before resuming rounds. *)
    Timer.on_success t.timer ~delay:pull_timeout;
    t.full_mode <- true;
    t.attempt <- 0;
    let recent = recent_proposers t (f_of t) in
    let candidate =
      match Store.last t.store with
      | Some b ->
          Rotation.successor t.rotation ~round:t.round
            b.Block.header.Header.proposer
      | None -> 0
    in
    t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate;
    obs_span t ~name:"catch_up" ~round:from_round
      ~args:
        [ ("target", string_of_int target); ("at", string_of_int t.round) ]
      ~t_begin:catch_up_start ~t_end:(now t) ()
  end

(* Activate the epoch governing the current round: swap the rotation
   onto the new member set and re-seat the proposer cursor inside it.
   Pure function of (definite chain, round) — every correct node
   switches at the same round with the same members. *)
let refresh_epoch t =
  let e = epoch_at t t.round in
  if e.Epoch.index <> t.active_epoch.Epoch.index then begin
    t.active_epoch <- e;
    Rotation.set_members t.rotation (Epoch.members e);
    incr_c t "epoch_activations";
    obs_instant t ~name:"epoch_activate" ~round:t.round
      ~args:
        [ ("epoch", string_of_int e.Epoch.index);
          ("members", string_of_int (Epoch.n e)) ]
      ();
    let recent = recent_proposers t (f_of t) in
    t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent t.proposer
  end

(* Pull one block for round [r] (Req/Reply) and append it if it
   extends the tip — the per-round tail of a joiner's catch-up, used
   when the gap is too small for [maybe_catch_up]. Returns true on
   progress. *)
let pull_round t ~r ~timeout =
  (match Hashtbl.find_opt t.fetched r with
  | Some _ -> ()
  | None ->
      bcast t (Msg.Req { round = r });
      let deadline = now t + timeout in
      let rec wait () =
        if (not (Hashtbl.mem t.fetched r)) && wait_pulse t ~deadline ~abort:None
        then wait ()
      in
      wait ());
  match Hashtbl.find_opt t.fetched r with
  | Some (sh, txs)
    when String.equal sh.Types.header.Header.prev_hash
           (Store.last_hash t.store)
         && sh.Types.header.Header.tx_count = Array.length txs
         && String.equal (Block.body_hash txs) sh.Types.header.Header.body_hash
         && t.valid { Block.header = sh.Types.header; txs } ->
      Hashtbl.remove t.fetched r;
      charge_verify t;
      charge_hash t ~bytes:(body_bytes txs);
      accept_block t { Types.sh; body = None } txs ~header_at:(now t);
      true
  | found ->
      if found <> None then Hashtbl.remove t.fetched r;
      false

let round_step t =
  maybe_catch_up t;
  refresh_epoch t;
  (* A member that entered the round after its OBBC instance already
     completed among the others — a joiner at its activation round —
     can never finish the round by consensus (the peers' per-round
     state is spent) and a one-round gap is far below the catch-up
     trigger. The watchdog diagnoses the wedge (no progress while the
     stash holds a signed later-round proposal) and aborts the parked
     wait; here we pull the missed block instead of re-entering it.
     The pulled block is tentative like any other, so rescind and
     recovery still apply. The watchdog only arms this after a
     reconfiguration, so with reconfiguration unused the behaviour
     (and the pinned observability fingerprints) is untouched. *)
  if t.wedged then begin
    t.wedged <- false;
    if max_stash_round t > t.round then
      ignore
        (pull_round t ~r:t.round
           ~timeout:(min (Timer.current t.timer) (Time.ms 100)))
  end;
  (* lines b1–b3: skip proposers of the last f tentative blocks *)
  let recent = recent_proposers t (f_of t) in
  let chosen =
    Rotation.eligible t.rotation ~round:t.round ~recent t.proposer
  in
  if chosen <> t.proposer then begin
    t.proposer <- chosen;
    Detector.invalidate t.detector
  end;
  let k = t.proposer in
  (* proposer duties at round start *)
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
    pre_disseminate t;
  match wrb_deliver t ~k with
  | None -> nil_path t ~k
  | Some (p, txs, header_at) ->
      t.full_mode <- false;
      Detector.record_delivery t.detector ~proposer:k;
      if not (t.valid { Block.header = p.Types.sh.Types.header; txs }) then begin
        (* Delivered (weak agreement) but externally invalid — every
           correct node evaluates the same deterministic predicate on
           the same content, so all reject together (BBFC-Validity). *)
        incr_c t "externally_invalid_blocks";
        nil_path t ~k
      end
      else if String.equal p.Types.sh.Types.header.Header.prev_hash
                (Store.last_hash t.store)
      then accept_block t p txs ~header_at
      else begin
        (* lines b4–b10: provable chain inconsistency *)
        match Hashtbl.find_opt t.signed_headers (t.round - 1) with
        | Some earlier
          when not
                 (Hashtbl.mem t.handled_recoveries
                    p.Types.sh.Types.header.Header.round) ->
            let proof = { Types.later = p.Types.sh; earlier } in
            incr_c t "proofs_generated";
            obs_instant t ~name:"proof" ~round:t.round
              ~args:
                [ ( "against",
                    string_of_int p.Types.sh.Types.header.Header.proposer ) ]
              ();
            t.rb_tag <- t.rb_tag + 1;
            (match t.rb with
            | Some rb -> Fl_broadcast.Bracha.broadcast rb ~tag:t.rb_tag proof
            | None -> assert false);
            enqueue_proof t proof;
            handle_panics t
        | _ ->
            (* stale equivocation remnant or unprovable: failed round *)
            nil_path t ~k
      end

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

(* Seed this (empty, joining) instance from a transferred snapshot —
   the network twin of [adopt_recovered]. Signed headers are unknown
   (snapshots carry no signatures); the joiner re-collects them as it
   follows live rounds. If a durability layer is attached, the adopted
   prefix is fed through it (application replay + a durable snapshot)
   so a later cold restart recovers locally. *)
let adopt_snapshot t (snap : Fl_persist.Snapshot.t) chain =
  let body_bytes_total = ref 0 in
  for i = 0 to Store.length chain - 1 do
    match Store.get chain i with
    | Some b -> (
        body_bytes_total := !body_bytes_total + b.Block.header.Header.body_size;
        match Store.append ~check_body:false t.store b with
        | Ok () -> ()
        | Error e ->
            Fmt.failwith "instance %d: transferred append round %d: %a" (me t)
              i Store.pp_error e)
    | None -> ()
  done;
  if Store.pruned_below chain > 0 then
    Store.prune t.store ~keep_from:(Store.pruned_below chain);
  charge_hash t ~bytes:!body_bytes_total;
  t.definite_upto <-
    min snap.Fl_persist.Snapshot.upto (Store.length t.store - 1);
  t.era <- snap.Fl_persist.Snapshot.era;
  t.round <- Store.length t.store;
  t.attempt <- 0;
  t.full_mode <- true;
  rebuild_epochs t;
  let recent = recent_proposers t (f_of t) in
  let candidate =
    match Store.last t.store with
    | Some b ->
        Rotation.successor t.rotation ~round:t.round
          b.Block.header.Header.proposer
    | None -> 0
  in
  t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate;
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
          let buf = Buffer.create (!total * snap_chunk_bytes) in
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

(* One scheduling step of a node outside the active membership.
   Joiners: state-transfer once, then follow the chain (pull blocks
   round by round) until the epoch that includes them activates.
   Leavers: hand pending txs to a survivor, then park — service
   fibers keep answering pulls, the main fiber stays quiet. *)
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

let main_loop t =
  while not t.stopped do
    if Epoch.is_member (epoch_at t t.round) (me t) then begin
      t.was_member <- true;
      match round_step t with
      | () -> ()
      | exception Race.Aborted -> handle_panics t
    end
    else
      match observer_step t with
      | () -> ()
      | exception Race.Aborted ->
          (* the watchdog's staleness abort is a member-path signal;
             outside the membership just re-arm and keep following *)
          t.abort <- Ivar.create (engine t)
  done

(* ---------- service fibers ---------- *)

let spawn_push_fiber t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "push" in
      while true do
        match Mailbox.recv box with
        | src, Msg.Push { proposal } -> note_proposal t ~src proposal
        | _ -> ()
      done)

let spawn_body_fiber t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "body" in
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
      done)

let spawn_reply_fiber t =
  Fiber.spawn (engine t) (fun () ->
      let box = Hub.box t.env.Env.hub "reply" in
      while true do
        match Mailbox.recv box with
        | src, Msg.Reply { round; proposal; txs } ->
            ignore (store_body t txs ~at:(now t));
            note_proposal t ~src proposal;
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

(* ---------- construction ---------- *)

(* Seed a freshly built instance from what recovery read off the
   media: copy the recovered chain into the (immutable-field) store,
   restore signed headers, definiteness watermark and era, and
   position the round/proposer cursors exactly as the recovery path
   does after adopting a version. The per-block hashing a real node
   pays to re-verify its chain is folded into [boot_delay]. *)
let adopt_recovered t (r : Fl_persist.Recovery.recovered) =
  let src = r.Fl_persist.Recovery.r_store in
  let body_bytes_total = ref 0 in
  for i = 0 to Store.length src - 1 do
    match Store.get src i with
    | Some b -> (
        body_bytes_total := !body_bytes_total + b.Block.header.Header.body_size;
        match Store.append ~check_body:false t.store b with
        | Ok () -> ()
        | Error e ->
            Fmt.failwith "instance %d: recovered append round %d: %a" (me t) i
              Store.pp_error e)
    | None -> ()
  done;
  if Store.pruned_below src > 0 then
    Store.prune t.store ~keep_from:(Store.pruned_below src);
  List.iter
    (fun (round, signature) ->
      match Store.get t.store round with
      | Some b ->
          Hashtbl.replace t.signed_headers round
            { Types.header = b.Block.header; signature }
      | None -> ())
    r.Fl_persist.Recovery.r_sigs;
  t.definite_upto <-
    min r.Fl_persist.Recovery.r_definite (Store.length t.store - 1);
  t.era <- r.Fl_persist.Recovery.r_era;
  t.round <- Store.length t.store;
  t.attempt <- 0;
  t.full_mode <- true;
  rebuild_epochs t;
  let recent = recent_proposers t (f_of t) in
  let candidate =
    match Store.last t.store with
    | Some b ->
        Rotation.successor t.rotation ~round:t.round
          b.Block.header.Header.proposer
    | None -> 0
  in
  t.proposer <- Rotation.eligible t.rotation ~round:t.round ~recent candidate;
  t.boot_delay <-
    t.boot_delay
    + Fl_crypto.Cost_model.hash_cost t.env.Env.cost ~bytes:!body_bytes_total;
  obs_instant t ~name:"boot_recovered" ~round:t.round
    ~args:
      [ ("len", string_of_int (Store.length t.store));
        ("definite", string_of_int t.definite_upto);
        ("era", string_of_int t.era) ]
    ()

let create env ~config ?(behavior = Honest) ?(valid = fun _ -> true) ?persist
    ?halves ?epoch ~output () =
  Config.validate config;
  let engine = env.Env.engine in
  let genesis_epoch =
    match epoch with
    | Some e -> e
    | None -> Epoch.genesis ~universe:config.Config.n ()
  in
  let halves =
    match halves with
    | Some h -> h
    | None ->
        let nodes = Array.init config.Config.n Fun.id in
        Rng.shuffle env.Env.rng nodes;
        let l = Array.to_list nodes in
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | rest when i = 0 -> (List.rev acc, rest)
          | x :: rest -> split (i - 1) (x :: acc) rest
        in
        split (config.Config.n / 2) [] l
  in
  let t =
    { env;
    config;
    behavior;
    valid;
    output;
    store = Store.create ();
    mempool = Mempool.create ~capacity:config.Config.mempool_capacity ();
    timer = Timer.create config;
    detector = Detector.create config;
    rotation = Rotation.create config ~seed:env.Env.seed;
    bodies = Hashtbl.create 64;
    body_arrival = Hashtbl.create 64;
    stash = Hashtbl.create 16;
    fetched = Hashtbl.create 64;
    signed_headers = Hashtbl.create 1024;
    my_signed = Hashtbl.create 64;
    evidence_log = Hashtbl.create 8;
    pulse = Ivar.create engine;
    prepared = Queue.create ();
    own_in_flight = Hashtbl.create 8;
    pool_txs = Hashtbl.create 8;
    round = 0;
    attempt = 0;
    era = 0;
    proposer = 0;
    full_mode = true;
    definite_upto = -1;
    open_obbcs = Hashtbl.create 64;
    times = Hashtbl.create 64;
    abort = Ivar.create engine;
    pending_proofs = [];
    handled_recoveries = Hashtbl.create 8;
    version_boxes = Hashtbl.create 4;
    rb = None;
    ab = None;
    evd = None;
    rb_tag = 0;
    evd_tag = 0;
      next_tx_id = 0;
      halves;
      stopped = false;
      genesis_epoch;
      epochs = [ genesis_epoch ];
      active_epoch = genesis_epoch;
      was_member = Epoch.is_member genesis_epoch env.Env.me;
      handoff_done = false;
      reconfig_fibers = false;
      wedged = false;
      snap_cache = None;
      persist;
      boot_delay = 0 }
  in
  if Epoch.n genesis_epoch < config.Config.n then
    Rotation.set_members t.rotation (Epoch.members genesis_epoch);
  (match persist with
  | None -> ()
  | Some per ->
      Fl_persist.Node.attach_chain per (fun () ->
          (t.store, t.definite_upto, t.era));
      (* A node whose persistence layer is frozen (power failure) boots
         by scanning its media back in: charge the sequential read. *)
      if not (Fl_persist.Node.live per) then
        t.boot_delay <-
          Fl_persist.Disk.read_delay
            (Fl_persist.Node.disk per)
            ~bytes:(Fl_persist.Node.media_bytes per);
      match Fl_persist.Node.recover per with
      | None -> ()  (* first boot, or nothing durable: cold start *)
      | Some r -> adopt_recovered t r);
  t

let start t =
  let engine = engine t in
  (* Panic layer: reliable broadcast of proofs. *)
  let rb_channel =
    Channel.of_hub t.env.Env.hub ~key:"rb" ~net:t.env.Env.net ~self:(me t)
      ~f:(f_of t) ~encode:Msg.encode
      ~inj:(fun m -> Msg.Rb m)
      ~prj:(function Msg.Rb m -> m | _ -> assert false)
  in
  t.rb <-
    Some
      (Fl_broadcast.Bracha.create engine ~recorder:(recorder t)
         ~channel:rb_channel ~payload_digest:Types.proof_digest
         ~deliver:(fun ~origin:_ ~tag:_ proof -> enqueue_proof t proof));
  (* Accountability layer: reliable broadcast of equivocation
     evidence, so one node's sighting becomes everyone's. Keyed by
     payload digest like the proof channel — an equivocating relay
     cannot split the quorum. *)
  let evd_channel =
    Channel.of_hub t.env.Env.hub ~key:"evd" ~net:t.env.Env.net ~self:(me t)
      ~f:(f_of t) ~encode:Msg.encode
      ~inj:(fun m -> Msg.Evd m)
      ~prj:(function Msg.Evd m -> m | _ -> assert false)
  in
  t.evd <-
    Some
      (Fl_broadcast.Bracha.create engine ~recorder:(recorder t)
         ~channel:evd_channel ~payload_digest:Types.evidence_digest
         ~deliver:(fun ~origin:_ ~tag:_ ev -> note_evidence ~relay:false t ev));
  (* Recovery layer: atomic broadcast of versions. *)
  let ab_channel =
    Channel.of_hub t.env.Env.hub ~key:"ab" ~net:t.env.Env.net ~self:(me t)
      ~f:(f_of t) ~encode:Msg.encode
      ~inj:(fun m -> Msg.Ab m)
      ~prj:(function Msg.Ab m -> m | _ -> assert false)
  in
  let ab_config =
    { (Pbft.default_config ~payload_digest:Types.version_digest) with
      Pbft.max_batch = 4;
      window = 4;
      base_timeout = Time.ms 500 }
  in
  t.ab <-
    Some
      (Pbft.create engine ~recorder:(recorder t) ~channel:ab_channel
         ~cpu:t.env.Env.cpu ~config:ab_config
         ~deliver:(fun ~seq:_ v ->
           Mailbox.send (version_box t v.Types.recovery_round) v));
  spawn_push_fiber t;
  spawn_body_fiber t;
  spawn_reply_fiber t;
  spawn_service_fiber t;
  (* Reconfigurable clusters (partial genesis membership, or a
     schedule restored from disk) need the state-transfer/handoff
     fibers; fully static clusters skip them entirely. *)
  if Epoch.n t.genesis_epoch < n_of t || List.length t.epochs > 1 then
    ensure_reconfig_fibers t;
  (* Staleness watchdog: the main fiber may be parked in a round the
     rest of the cluster abandoned long ago (e.g. after a long
     isolation) — no quorum will ever form there. When stashed signed
     proposals show the cluster far ahead, abort the wait so the loop
     falls into the catch-up sync. Post-reconfiguration a second,
     slower trip covers the one-round wedge: a joiner that became a
     member after its first round's OBBC already completed among the
     veterans waits for votes that can never come, and with exactly
     n - f live members the rest of the cluster cannot outrun it to
     arm the far-ahead trip. A signed proposal for any later round
     plus a full second without progress is proof enough; the main
     loop then pulls the missed block instead of waiting. *)
  Fiber.spawn engine (fun () ->
      let stuck_at = ref (-1) and stuck_ticks = ref 0 in
      while not t.stopped do
        Fiber.sleep engine (Time.ms 250);
        if max_stash_round t - (f_of t + 2) >= t.round + f_of t + 4 then
          ignore (Ivar.try_fill t.abort ())
        else begin
          if t.round = !stuck_at then incr stuck_ticks
          else begin
            stuck_at := t.round;
            stuck_ticks := 0
          end;
          if
            t.active_epoch.Epoch.index > 0
            && !stuck_ticks >= 4
            && max_stash_round t > t.round
          then begin
            t.wedged <- true;
            stuck_ticks := 0;
            ignore (Ivar.try_fill t.abort ())
          end
        end
      done);
  (match t.persist with
  | Some per -> Fl_persist.Node.maybe_start_flusher per
  | None -> ());
  Fiber.spawn engine (fun () ->
      if t.boot_delay > 0 then begin
        Fiber.sleep engine t.boot_delay;
        obs_instant t ~name:"boot_replay_done" ~round:t.round ()
      end;
      main_loop t)

let stop t = t.stopped <- true

(* Synchronous teardown for cold restarts: the node's inbox is about
   to be replaced, so message-based [stop]s would never arrive. Parks
   every consensus component; orphaned service fibers stay blocked on
   the abandoned mailboxes forever, which is harmless (and free) in
   the simulator. *)
let shutdown t =
  t.stopped <- true;
  t.pending_proofs <- [];
  ignore (Ivar.try_fill t.abort ());
  Hashtbl.iter (fun _ o -> Obbc.close o) t.open_obbcs;
  Hashtbl.reset t.open_obbcs;
  (match t.rb with Some rb -> Fl_broadcast.Bracha.halt rb | None -> ());
  (match t.evd with Some b -> Fl_broadcast.Bracha.halt b | None -> ());
  match t.ab with Some ab -> Pbft.halt ab | None -> ()
let store t = t.store
let mempool t = t.mempool

let inflight_client_txs t =
  Hashtbl.fold
    (fun _ batch acc -> Array.fold_left (fun acc p -> p :: acc) acc batch)
    t.pool_txs []
let round t = t.round
let definite_upto t = t.definite_upto
let recoveries t = Fl_metrics.Recorder.counter (recorder t) "recoveries"
let era t = t.era
let persist t = t.persist
let active_epoch t = t.active_epoch
let epoch_of_round t ~round = epoch_at t round
let epochs_scheduled t = List.length t.epochs - 1
let is_member t = Epoch.is_member (epoch_at t t.round) (me t)

let submit_reconfig t change =
  ignore (Mempool.admit t.mempool (Epoch.reconfig_tx change) ~fee:max_int)

let evidence t = Hashtbl.fold (fun _ ev acc -> ev :: acc) t.evidence_log []

let accused t =
  let s = Hashtbl.create 4 in
  Hashtbl.iter (fun _ ev -> Hashtbl.replace s ev.Types.accused ()) t.evidence_log;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) s [])

let tee_output a b =
  { on_tentative =
      (fun ~round blk ->
        a.on_tentative ~round blk;
        b.on_tentative ~round blk);
    on_definite =
      (fun ~round blk ~times ->
        a.on_definite ~round blk ~times;
        b.on_definite ~round blk ~times);
    on_recovery =
      (fun ~round ~rescinded ->
        a.on_recovery ~round ~rescinded;
        b.on_recovery ~round ~rescinded);
    on_evidence =
      (fun ev ->
        a.on_evidence ev;
        b.on_evidence ev);
    on_epoch =
      (fun e ->
        a.on_epoch e;
        b.on_epoch e);
    on_transfer =
      (fun ~upto ~chunks ~retries ->
        a.on_transfer ~upto ~chunks ~retries;
        b.on_transfer ~upto ~chunks ~retries) }
