open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus
open State

type behavior = State.behavior = Honest | Equivocator

type block_times = State.block_times = {
  a : Time.t;
  b : Time.t;
  c : Time.t;
  d : Time.t;
}

type output = State.output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
  on_epoch : Epoch.t -> unit;
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
}

type t = State.t

let null_output = State.null_output

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

let round_step t =
  Sync.maybe_catch_up t;
  Reconfig.refresh_epoch t;
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
    if Wrb.max_stash_round t > t.round then
      ignore
        (Sync.pull_round t ~r:t.round
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
  Wrb.propose t ~k;
  match Wrb.deliver t ~k with
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
      then Ledger.accept_block t p txs ~header_at
      else if not (Recovery.prove_inconsistency t p.Types.sh) then
        (* stale equivocation remnant or unprovable: failed round *)
        nil_path t ~k

let main_loop t =
  while not t.stopped do
    if Epoch.is_member (epoch_at t t.round) (me t) then begin
      t.was_member <- true;
      match round_step t with
      | () -> ()
      | exception Race.Aborted -> Recovery.handle_panics t
    end
    else
      match Sync.observer_step t with
      | () -> ()
      | exception Race.Aborted ->
          (* the watchdog's staleness abort is a member-path signal;
             outside the membership just re-arm and keep following *)
          t.abort <- Ivar.create (engine t)
  done

(* ---------- construction ---------- *)

(* Seed a freshly built instance from what recovery read off the
   media: chain, definiteness watermark and era, positioned exactly as
   after a recovery adoption, plus the signed headers. The per-block
   hashing a real node pays to re-verify its chain is folded into
   [boot_delay]. *)
let adopt_recovered t (r : Fl_persist.Recovery.recovered) =
  Ledger.adopt_chain t r.Fl_persist.Recovery.r_store
    ~definite:r.Fl_persist.Recovery.r_definite
    ~era:r.Fl_persist.Recovery.r_era ~at_boot:true;
  List.iter
    (fun (round, signature) ->
      match Store.get t.store round with
      | Some b ->
          Hashtbl.replace t.signed_headers round
            { Types.header = b.Block.header; signature }
      | None -> ())
    r.Fl_persist.Recovery.r_sigs;
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
      signed_headers = Hashtbl.create 64;
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
         ~deliver:(fun ~origin:_ ~tag:_ proof -> Recovery.enqueue_proof t proof));
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
         ~deliver:(fun ~origin:_ ~tag:_ ev ->
           Accountability.note_evidence ~relay:false t ev));
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
           Mailbox.send (Recovery.version_box t v.Types.recovery_round) v));
  Wrb.spawn_fibers t;
  Sync.spawn_service_fiber t;
  (* Reconfigurable clusters (partial genesis membership, or a
     schedule restored from disk) need the state-transfer/handoff
     fibers; fully static clusters skip them entirely. *)
  if Epoch.n t.genesis_epoch < n_of t || List.length t.epochs > 1 then
    Reconfig.ensure_reconfig_fibers t;
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
        if Wrb.max_stash_round t - (f_of t + 2) >= t.round + f_of t + 4 then
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
            && Wrb.max_stash_round t > t.round
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

(* Synchronous teardown for cold restarts: the node's inbox is about
   to be replaced, so message-based stops would never arrive. Parks
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

(* ---------- accessors ---------- *)

let store t = t.store
let mempool t = t.mempool

let inflight_client_txs t =
  Hashtbl.fold
    (fun _ batch acc -> Array.fold_left (fun acc p -> p :: acc) acc batch)
    t.pool_txs []

let round t = t.round
let definite_upto t = t.definite_upto
let era t = t.era
let active_epoch t = t.active_epoch
let epochs_scheduled t = List.length t.epochs - 1
let is_member t = Epoch.is_member (epoch_at t t.round) (me t)

let submit_reconfig t change =
  ignore (Mempool.admit t.mempool (Epoch.reconfig_tx change) ~fee:max_int)

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
