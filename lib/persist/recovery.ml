(* The caller (a FireLedger instance being rebuilt) resumes from the
   definite watermark and network-catches-up only the missing suffix. *)

open Fl_chain

type app = {
  app_apply : Block.t -> unit;
  app_snapshot : unit -> string;
  app_restore : string -> bool;
  app_reset : unit -> unit;
  app_hash : unit -> string;
}

type recovered = {
  r_store : Store.t;
  r_sigs : (int * string) list;
  r_definite : int;
  r_era : int;
  r_torn : bool;
  r_records : int;
  r_frames : (string * int) list;
  r_from_snapshot : bool;
  r_snapshot_upto : int;
}

(* Apply one WAL record to the store under reconstruction. Replay is
   chronological, so an append below the store length is already
   covered (snapshot or a later truncate+re-append supersedes it). *)
let apply_record ~store ~sigs ~applied ~app record =
  match record with
  | Wal.Append { block; signature } ->
      let r = block.Block.header.Header.round in
      if r = Store.length store then (
        match Store.append store block with
        | Ok () ->
            Hashtbl.replace sigs r signature;
            true
        | Error _ -> false)
      else if r < Store.length store then true (* superseded / in snapshot *)
      else false (* gap: truncated log, stop *)
  | Wal.Truncate { from } -> (
      if from >= Store.length store then true
      else
        match Store.replace_suffix store ~from [] with
        | Ok () ->
            Hashtbl.iter
              (fun r _ -> if r >= from then Hashtbl.remove sigs r)
              (Hashtbl.copy sigs);
            true
        | Error _ -> false)
  | Wal.Definite { upto; era = _ } ->
      (* apply newly definite blocks to the application *)
      (match app with
      | None -> ()
      | Some a ->
          for r = !applied + 1 to min upto (Store.length store - 1) do
            match Store.get store r with
            | Some b -> a.app_apply b
            | None -> ()
          done);
      applied := max !applied upto;
      true

let run ~snapshot_media ~wal_media ~app =
  let replay = Wal.replay_media wal_media in
  (* 1. snapshot base *)
  let snap =
    match snapshot_media with
    | None -> None
    | Some s -> Result.to_option (Snapshot.decode s)
  in
  let base =
    match snap with
    | None -> None
    | Some snap -> (
        match Snapshot.restore_chain snap with
        | Error _ -> None
        | Ok store -> Some (snap, store))
  in
  let store, definite0, era0, restored_app =
    match base with
    | Some (snap, store) ->
        let app_ok =
          match app with
          | None -> true
          | Some a -> if a.app_restore snap.Snapshot.app then true else false
        in
        if app_ok then (store, snap.Snapshot.upto, snap.Snapshot.era, true)
        else begin
          (* unusable app payload: fall back to a full replay *)
          (match app with Some a -> a.app_reset () | None -> ());
          (store, snap.Snapshot.upto, snap.Snapshot.era, false)
        end
    | None ->
        (match app with Some a -> a.app_reset () | None -> ());
        (Store.create (), -1, 0, false)
  in
  (* If the app payload could not be restored the definite prefix must
     be re-applied from the chain itself. *)
  let applied = ref (if restored_app || app = None then definite0 else -1) in
  (match (app, !applied < definite0) with
  | Some a, true ->
      for r = !applied + 1 to min definite0 (Store.length store - 1) do
        match Store.get store r with Some b -> a.app_apply b | None -> ()
      done;
      applied := definite0
  | _ -> ());
  (* 2. WAL suffix *)
  let sigs = Hashtbl.create 64 in
  let definite = ref definite0 in
  let era = ref era0 in
  let count = ref 0 in
  let ok = ref true in
  List.iter
    (fun record ->
      if !ok then begin
        (match record with
        | Wal.Definite { upto; era = e } ->
            definite := max !definite upto;
            era := max !era e
        | _ -> ());
        if apply_record ~store ~sigs ~applied ~app record then incr count
        else ok := false
      end)
    replay.Wal.records;
  let r_sigs =
    Hashtbl.fold (fun r s acc -> (r, s) :: acc) sigs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { r_store = store;
    r_sigs;
    r_definite = min !definite (Store.length store - 1);
    r_era = !era;
    r_torn = replay.Wal.torn || not !ok;
    r_records = !count;
    r_frames = replay.Wal.frames;
    r_from_snapshot = base <> None;
    r_snapshot_upto =
      (match snap with Some s -> s.Snapshot.upto | None -> -1) }
