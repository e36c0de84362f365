open Fl_sim
open Fl_net
open Fl_chain
open State

(* ---------- snapshot donor and tx handoff fibers ---------- *)

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
