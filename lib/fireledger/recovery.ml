open Fl_sim
open Fl_chain
open Fl_consensus
open State

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
  if t.round < r - 1 then Types.make_version ~recovery_round:r ~origin:(me t) []
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
    Types.make_version ~recovery_round:r ~origin:(me t) blocks

let recovery t r =
  incr_c t "recoveries";
  let recovery_start = now t in
  obs_instant t ~name:"recovery_start" ~round:r
    ~args:[ ("era", string_of_int t.era) ]
    ();
  Detector.invalidate t.detector;
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
              Accountability.consider_conflict t local_sh sh
          | _ -> ());
          (* the other variant may never have been acceptable here —
             built on a tip we did not hold — and still sit in the
             stash *)
          (match Hashtbl.find_opt t.stash b.Block.header.Header.proposer with
          | Some (st, _) when st.Types.sh.Types.header.Header.round = rb ->
              Accountability.consider_conflict t st.Types.sh sh
          | _ -> ());
          let prior =
            match Hashtbl.find_opt version_headers rb with
            | Some l -> l
            | None -> []
          in
          List.iter
            (fun prior_sh -> Accountability.consider_conflict t prior_sh sh)
            prior;
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
  let rescinded =
    match best with
    | None -> 0
    | Some v ->
        let from =
          match v.Types.blocks with
          | (b, _) :: _ -> b.Block.header.Header.round
          | [] -> assert false
        in
        Ledger.replace_suffix t ~from v.Types.blocks
  in
  t.output.on_recovery ~round:r ~rescinded;
  Fl_metrics.Recorder.add (recorder t) "blocks_rescinded" rescinded;
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
  Ledger.reseat t;
  obs_span t ~name:"recovery" ~round:r
    ~args:
      [ ("era", string_of_int (t.era - 1));
        ("rescinded", string_of_int rescinded);
        ("new_round", string_of_int t.round) ]
    ~t_begin:recovery_start ~t_end:(now t) ();
  Ledger.mark_definite t

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

let prove_inconsistency t (later : Types.signed_header) =
  match Hashtbl.find_opt t.signed_headers (t.round - 1) with
  | Some earlier
    when not (Hashtbl.mem t.handled_recoveries later.Types.header.Header.round)
    ->
      let proof = Types.make_proof ~later ~earlier in
      incr_c t "proofs_generated";
      obs_instant t ~name:"proof" ~round:t.round
        ~args:
          [ ("against", string_of_int later.Types.header.Header.proposer) ]
        ();
      t.rb_tag <- t.rb_tag + 1;
      (match t.rb with
      | Some rb -> Fl_broadcast.Bracha.broadcast rb ~tag:t.rb_tag proof
      | None -> assert false);
      enqueue_proof t proof;
      handle_panics t;
      true
  | _ -> false
