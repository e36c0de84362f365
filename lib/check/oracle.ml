open Fl_sim
open Fl_chain

type violation = {
  oracle : string;
  at : Time.t;
  node : int;
  round : int;
  detail : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "[%s] t=%a node=%d round=%d: %s" v.oracle Time.pp v.at
    v.node v.round v.detail

let cap = 100

type node_state = {
  mutable next_definite : int;  (* round the next on_definite must carry *)
  mutable prev_hash : string;  (* hash of the last definite block *)
  definite : (int, string) Hashtbl.t;  (* round -> hash, as reported *)
  window : int Queue.t;  (* proposers of the last f+1 definite blocks *)
  mutable recoveries : int;
  mutable restarted : bool;
      (* a cold restart wiped the node's volatile state: the next
         on_definite legitimately rewinds the per-node stream cursor
         (re-emission of the recovered/caught-up prefix) *)
}

type t = {
  now : unit -> Time.t;
  n : int;
  f : int;
  genesis_members : int array;  (* epoch-0 membership *)
  nodes : node_state array;
  canonical : (int, string) Hashtbl.t;  (* round -> first reported hash *)
  epochs : (int, int * int array) Hashtbl.t;
      (* epoch index -> (activation, members), first report wins: the
         schedule is a pure function of the definite chain prefix, so
         every correct node must report identical entries *)
  evidence : (string, Fl_fireledger.Types.evidence) Hashtbl.t;  (* by digest *)
  accused_tbl : (int, unit) Hashtbl.t;
  mutable rescind_seen : bool;
      (* some recovery actually rescinded blocks — the trigger for the
         accountability obligation: rescinds demand evidence *)
  mutable transfers : int;  (* completed state transfers, cluster-wide *)
  mutable stores : Store.t array option;
  mutable violations : violation list;  (* newest first, capped *)
  mutable total : int;
}

let create ?members ~now ~n ~f () =
  let genesis_members =
    match members with
    | None -> Array.init n (fun i -> i)
    | Some ms -> Array.of_list (List.sort_uniq compare ms)
  in
  { now;
    n;
    f;
    genesis_members;
    nodes =
      Array.init n (fun _ ->
          { next_definite = 0;
            prev_hash = Block.genesis_hash;
            definite = Hashtbl.create 64;
            window = Queue.create ();
            recoveries = 0;
            restarted = false });
    canonical = Hashtbl.create 64;
    epochs = Hashtbl.create 4;
    evidence = Hashtbl.create 8;
    accused_tbl = Hashtbl.create 4;
    rescind_seen = false;
    transfers = 0;
    stores = None;
    violations = [];
    total = 0 }

let flag t ~oracle ~node ~round fmt =
  Printf.ksprintf
    (fun detail ->
      t.total <- t.total + 1;
      if t.total <= cap then
        t.violations <-
          { oracle; at = t.now (); node; round; detail } :: t.violations)
    fmt

let attach_stores t stores = t.stores <- Some stores

(* A cold restart rebuilt node [i] from its durable media (or from
   genesis + catch-up): its definite stream restarts at the recovered
   watermark, below what we already saw. Arm a one-shot rewind; the
   re-emitted prefix is still checked against the canonical hashes, so
   a divergent recovery cannot hide behind a restart. *)
let note_restart t i =
  let ns = t.nodes.(i) in
  ns.restarted <- true

(* Membership governing [round] under the canonical epoch schedule:
   the reported epoch with the greatest activation <= round, genesis
   otherwise. *)
let members_at t ~round =
  snd
    (Hashtbl.fold
       (fun _ (activation, members) ((best_act, _) as best) ->
         if activation <= round && activation > best_act then
           (activation, members)
         else best)
       t.epochs
       (-1, t.genesis_members))

(* ---------- streaming checks ---------- *)

let on_definite t i ~round (block : Block.t) =
  let ns = t.nodes.(i) in
  let h = Block.hash block in
  if ns.restarted then begin
    ns.restarted <- false;
    if round <= ns.next_definite then begin
      ns.next_definite <- round;
      ns.prev_hash <- block.Block.header.Header.prev_hash
    end;
    Queue.clear ns.window
  end;
  (* exactly once, in order *)
  if round <> ns.next_definite then
    flag t ~oracle:"definite-order" ~node:i ~round
      "expected definite round %d, got %d" ns.next_definite round;
  (* hash-chain link *)
  if
    round = ns.next_definite
    && not (String.equal block.Block.header.Header.prev_hash ns.prev_hash)
  then
    flag t ~oracle:"chain" ~node:i ~round
      "definite block does not link to the previous definite block";
  (* cross-node agreement on the definite prefix *)
  (match Hashtbl.find_opt t.canonical round with
  | None -> Hashtbl.replace t.canonical round h
  | Some h' when String.equal h h' -> ()
  | Some _ ->
      flag t ~oracle:"agreement" ~node:i ~round
        "definite block differs from another node's definite block");
  (* epoch membership: a definite block's proposer must belong to the
     epoch governing its round (a vote counted under the wrong epoch's
     quorum could only surface as a block an outsider got decided) *)
  (let p = block.Block.header.Header.proposer in
   let members = members_at t ~round in
   if not (Array.exists (fun m -> m = p) members) then
     flag t ~oracle:"epoch-proposer" ~node:i ~round
       "definite block proposed by %d, outside the epoch governing round %d"
       p round);
  (* distinct proposers in every f+1 window of the definite chain *)
  Queue.push block.Block.header.Header.proposer ns.window;
  if Queue.length ns.window > t.f + 1 then ignore (Queue.pop ns.window);
  if Queue.length ns.window = t.f + 1 then begin
    let seen = Hashtbl.create (t.f + 1) in
    Queue.iter (fun p -> Hashtbl.replace seen p ()) ns.window;
    if Hashtbl.length seen < t.f + 1 then
      flag t ~oracle:"rotation" ~node:i ~round
        "%d distinct proposers in the last f+1=%d definite blocks"
        (Hashtbl.length seen) (t.f + 1)
  end;
  if round >= ns.next_definite then begin
    Hashtbl.replace ns.definite round h;
    ns.prev_hash <- h;
    ns.next_definite <- round + 1
  end

(* Accountability oracle, streaming part: structural validity and
   wire-trueness of every evidence object a node emits. Signature
   validity and false-accusation checks need the registry and ground
   truth, so they run in {!finish}. *)
let on_evidence t i (ev : Fl_fireledger.Types.evidence) =
  let open Fl_fireledger in
  let ha = ev.Types.first.Types.header
  and hb = ev.Types.second.Types.header in
  let round = ha.Header.round in
  if
    not
      (ha.Header.proposer = ev.Types.accused
      && hb.Header.proposer = ev.Types.accused
      && ha.Header.round = hb.Header.round
      && String.equal ha.Header.prev_hash hb.Header.prev_hash
      && not (Header.equal ha hb))
  then
    flag t ~oracle:"evidence-malformed" ~node:i ~round
      "evidence against %d is not a same-slot header conflict"
      ev.Types.accused;
  (* wire-true: the detached frame must round-trip through the codec *)
  (match Types.decode_evidence (Types.encode_evidence ev) with
  | Some ev' when ev' = ev -> ()
  | _ ->
      flag t ~oracle:"evidence-codec" ~node:i ~round
        "evidence against %d does not round-trip through its codec"
        ev.Types.accused);
  Hashtbl.replace t.evidence (Types.evidence_digest ev) ev;
  Hashtbl.replace t.accused_tbl ev.Types.accused ()

let on_recovery t i ~round ~rescinded =
  let ns = t.nodes.(i) in
  ns.recoveries <- ns.recoveries + 1;
  if rescinded > 0 then t.rescind_seen <- true;
  if rescinded > t.f + 1 then
    flag t ~oracle:"rescission-depth" ~node:i ~round
      "recovery rescinded %d blocks > f+1=%d" rescinded (t.f + 1);
  (* No definite block may ever be rescinded: the node's store must
     still hold exactly the blocks we saw it mark definite. Recovery
     only touches the tentative suffix, so checking the last few
     definite rounds (2(f+2), comfortably covering any legal
     replace_suffix) is sufficient and keeps this O(f) per
     recovery. *)
  match t.stores with
  | None -> ()
  | Some stores ->
      let lo = max 0 (ns.next_definite - (2 * (t.f + 2))) in
      for r = lo to ns.next_definite - 1 do
        match (Hashtbl.find_opt ns.definite r, Store.get stores.(i) r) with
        | Some h, Some b when not (String.equal h (Block.hash b)) ->
            flag t ~oracle:"definite-rescinded" ~node:i ~round:r
              "recovery at round %d replaced a definite block" round
        | Some _, None ->
            flag t ~oracle:"definite-rescinded" ~node:i ~round:r
              "recovery at round %d dropped a definite block" round
        | _ -> ()
      done

(* Epoch-fork oracle: the schedule is a pure function of the definite
   chain prefix, so every node must report each epoch index with the
   same activation round and member set. First report wins as
   canonical. *)
let on_epoch t i (e : Fl_fireledger.Epoch.t) =
  let open Fl_fireledger in
  match Hashtbl.find_opt t.epochs e.Epoch.index with
  | None ->
      Hashtbl.replace t.epochs e.Epoch.index
        (e.Epoch.activation, Array.copy e.Epoch.members)
  | Some (act, members) ->
      if act <> e.Epoch.activation || members <> e.Epoch.members then
        flag t ~oracle:"epoch-fork" ~node:i ~round:e.Epoch.activation
          "epoch %d scheduled with a different activation or member set \
           than another node reported"
          e.Epoch.index

(* State-transfer oracle: the adopted prefix was CRC-verified on
   decode and hash-link revalidated on restore, but it was never
   streamed block-by-block — audit it against the canonical hashes
   and jump the per-node stream cursor forward so definite-order
   checks resume at [upto + 1]. *)
let on_transfer t i ~upto ~chunks ~retries:_ =
  t.transfers <- t.transfers + 1;
  let ns = t.nodes.(i) in
  if chunks <= 0 || upto < 0 then
    flag t ~oracle:"transfer" ~node:i ~round:upto
      "state transfer adopted rounds 0..%d from %d chunks" upto chunks;
  (match t.stores with
  | Some stores when i < Array.length stores ->
      for r = 0 to upto do
        match (Store.get stores.(i) r, Hashtbl.find_opt t.canonical r) with
        | Some b, Some h when not (String.equal (Block.hash b) h) ->
            flag t ~oracle:"transfer" ~node:i ~round:r
              "adopted snapshot block diverges from the canonical definite \
               block"
        | Some b, None -> Hashtbl.replace t.canonical r (Block.hash b)
        | None, _ ->
            flag t ~oracle:"transfer" ~node:i ~round:r
              "state transfer claims rounds 0..%d but round %d is missing"
              upto r
        | Some _, Some _ -> ()
      done;
      (match Store.get stores.(i) upto with
      | Some b -> ns.prev_hash <- Block.hash b
      | None -> ())
  | _ -> ());
  if upto + 1 > ns.next_definite then ns.next_definite <- upto + 1;
  Queue.clear ns.window

let output_for t i =
  { Fl_fireledger.Instance.on_tentative = (fun ~round:_ _ -> ());
    on_definite = (fun ~round block ~times:_ -> on_definite t i ~round block);
    on_recovery = (fun ~round ~rescinded -> on_recovery t i ~round ~rescinded);
    on_evidence = (fun ev -> on_evidence t i ev);
    on_epoch = (fun e -> on_epoch t i e);
    on_transfer =
      (fun ~upto ~chunks ~retries -> on_transfer t i ~upto ~chunks ~retries) }

let accused t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.accused_tbl [])

let evidence_count t = Hashtbl.length t.evidence
let epoch_count t = Hashtbl.length t.epochs
let transfer_count t = t.transfers

(* ---------- end-of-run checks ---------- *)

let finish ?expect_accused ?(departed = []) ?(excused = []) t ~cluster ~faulty
    ~expect_progress ~min_rounds =
  let open Fl_fireledger in
  let crashed i = Hashtbl.mem cluster.Cluster.crashed i in
  let inst i = cluster.Cluster.instances.(i) in
  (* ---- accountability ---- *)
  (* Every collected evidence object must carry two valid signatures
     (deferred from the streaming check: it needs the registry). *)
  Hashtbl.iter
    (fun _ ev ->
      let round = ev.Types.first.Types.header.Header.round in
      if not (Types.evidence_valid cluster.Cluster.registry ev) then
        flag t ~oracle:"evidence-invalid" ~node:ev.Types.accused ~round
          "collected evidence against %d fails signature/structure validation"
          ev.Types.accused)
    t.evidence;
  (* Zero false accusations: only faulty nodes (Byzantine or crashed —
     a crashed node legitimately double-signs across incarnations since
     its no-double-sign archive is volatile) may be accused. [excused]
     widens the exemption to nodes that restarted for a benign reason
     (a rolling restart) without entering the plan's fault budget. *)
  Hashtbl.iter
    (fun a () ->
      if not (List.mem a faulty || List.mem a excused) then
        flag t ~oracle:"false-accusation" ~node:a ~round:(-1)
          "evidence accuses node %d, which is correct" a)
    t.accused_tbl;
  (* Exactness: when the run is known to contain equivocators and a
     fork actually materialised (a rescinding recovery ran AND the
     equivocators really sent split proposals), the evidence must be
     non-empty and name only the injected set — with one injected
     equivocator that is exact equality. Not every injected
     equivocator necessarily got a proposal turn, so a strict
     set-equality demand would over-claim. *)
  (match expect_accused with
  | Some expected
    when t.rescind_seen
         && Fl_metrics.Recorder.counter cluster.Cluster.recorder
              "equivocations"
            > 0 ->
      let expected = List.sort_uniq compare expected in
      let got = accused t in
      if got = [] || List.exists (fun a -> not (List.mem a expected)) got then
        flag t ~oracle:"accountability" ~node:(-1) ~round:(-1)
          "a rescinding fork ran but evidence names [%s], expected nodes \
           from [%s]"
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected))
  | _ -> ());
  (* pairwise definite-prefix agreement over non-crashed nodes *)
  List.iter
    (fun (i, j, r, split) ->
      match split with
      | Cluster.Diverged ->
          flag t ~oracle:"agreement" ~node:i ~round:r
            "final definite prefixes of nodes %d and %d diverge" i j
      | Cluster.Missing ->
          flag t ~oracle:"agreement" ~node:i ~round:r
            "definite round %d missing from a store" r)
    (Cluster.disagreements ~crashed:cluster.Cluster.crashed
       cluster.Cluster.instances);
  (* chain integrity *)
  for i = 0 to t.n - 1 do
    if (not (crashed i)) && not (Store.check_integrity (Instance.store (inst i)))
    then flag t ~oracle:"integrity" ~node:i ~round:(-1) "hash-chain walk failed"
  done;
  (* bounded progress — [departed] nodes left the membership and owe
     no further progress *)
  if expect_progress then
    for i = 0 to t.n - 1 do
      if
        (not (List.mem i faulty))
        && (not (List.mem i departed))
        && not (crashed i)
      then begin
        let d = Instance.definite_upto (inst i) in
        if d < min_rounds then
          flag t ~oracle:"liveness" ~node:i ~round:d
            "only %d definite rounds (< %d) although n-f correct nodes stayed connected"
            d min_rounds
      end
    done

(* Replicated-application self-consistency: a node's live KV state —
   built from snapshot restore + WAL replay + the live definite stream
   across any number of crashes — must equal a from-scratch fold over
   the node's own definite prefix. A recovery that double-applied,
   skipped or mis-restored blocks is caught here even when the chains
   agree. *)
let check_app_state t ~node ~live ~replayed =
  if not (String.equal live replayed) then
    flag t ~oracle:"app-state" ~node ~round:(-1)
      "live application state (%s) differs from a replay of the node's own \
       definite prefix (%s)"
      live replayed

let check_no_silent_drop t ~node ~missing ~pending =
  if missing > 0 then
    flag t ~oracle:"tx-conservation" ~node ~round:(-1)
      "%d of %d admitted transactions vanished: neither finalized, \
       explicitly evicted, in the node's pool, nor in an in-flight proposal"
      missing pending

let violations t = List.rev t.violations
let total t = t.total

(* ---------- FLO merge-order consistency ---------- *)

module Flo_merge = struct
  type oracle = t

  type t = {
    n : int;
    workers : int;
    mutable canon : (int * int * string) array;  (* global delivery log *)
    mutable canon_len : int;
    cursor : int array;  (* per node: next delivery index *)
    rr : int array;  (* per node: expected worker of next delivery *)
    next_round : int array array;  (* per node per worker *)
    mutable violations : violation list;
    mutable total : int;
  }

  let create ~n ~workers =
    { n;
      workers;
      canon = Array.make 64 (0, 0, "");
      canon_len = 0;
      cursor = Array.make n 0;
      rr = Array.make n 0;
      next_round = Array.make_matrix n workers 0;
      violations = [];
      total = 0 }

  let flag t ~node ~round fmt =
    Printf.ksprintf
      (fun detail ->
        t.total <- t.total + 1;
        if t.total <= cap then
          t.violations <-
            { oracle = "flo-merge"; at = 0; node; round; detail }
            :: t.violations)
      fmt

  let push_canon t entry =
    if t.canon_len = Array.length t.canon then begin
      let fresh = Array.make (2 * t.canon_len) (0, 0, "") in
      Array.blit t.canon 0 fresh 0 t.canon_len;
      t.canon <- fresh
    end;
    t.canon.(t.canon_len) <- entry;
    t.canon_len <- t.canon_len + 1

  let on_deliver t ~node (d : Fl_flo.Node.delivery) =
    let w = d.Fl_flo.Node.worker
    and r = d.Fl_flo.Node.round
    and h = Block.hash d.Fl_flo.Node.block in
    (* round-robin: deliveries cycle through the workers *)
    if w <> t.rr.(node) then
      flag t ~node ~round:r "delivery from worker %d, round-robin expected %d"
        w t.rr.(node);
    t.rr.(node) <- (w + 1) mod t.workers;
    (* per-worker rounds advance one at a time *)
    if r <> t.next_round.(node).(w) then
      flag t ~node ~round:r "worker %d delivered round %d, expected %d" w r
        t.next_round.(node).(w);
    t.next_round.(node).(w) <- r + 1;
    (* cross-node: everyone delivers the same merged sequence *)
    let k = t.cursor.(node) in
    t.cursor.(node) <- k + 1;
    if k < t.canon_len then begin
      let cw, cr, ch = t.canon.(k) in
      if cw <> w || cr <> r || not (String.equal ch h) then
        flag t ~node ~round:r
          "delivery #%d (worker %d, round %d) disagrees with another node's \
           merged sequence (worker %d, round %d)"
          k w r cw cr
    end
    else push_canon t (w, r, h)

  let violations t = List.rev t.violations
end
