open Fl_sim
open Fl_chain

type sync_policy = Never | Group_commit of Time.t | Every_block

type config = {
  profile : Disk.profile;
  sync : sync_policy;
  segment_bytes : int;
  snapshot_interval : int;
}

let default_config =
  { profile = Disk.nvme;
    sync = Group_commit (Time.ms 2);
    segment_bytes = 1 lsl 16;
    snapshot_interval = 64 }

type stats = {
  s_fsyncs : int;
  s_snapshots : int;
  s_recovers : int;
  s_replayed : int;
  s_torn_discards : int;
  s_bytes : int;
}

let no_media = Fl_wire.Sparse.of_string ""

type t = {
  engine : Engine.t;
  config : config;
  node : int;
  worker : int;
  obs : Fl_obs.Obs.t option;
  disk : Disk.t;
  wal : Wal.t;
  app : Recovery.app option;
  mutable chain : (unit -> Store.t * int * int) option;
      (* store, definite_upto, era — set by the attached instance *)
  mutable snapshot_media : Snapshot.image option;
  mutable sealed : Snapshot.image option;
      (* the last image built: the sealer's segment cache *)
  mutable wal_media : Fl_wire.Sparse.t;
      (* frozen image between power_fail and recover *)
  mutable live : bool;
  mutable gen : int;  (* incarnation guard for in-flight async work *)
  mutable last_snapshot_upto : int;
  mutable flusher_running : bool;
  mutable snapshots : int;
  mutable recovers : int;
  mutable replayed : int;
  mutable torn_discards : int;
}

let create engine ?obs ?(node = -1) ?(worker = 0) ?disk ?app ~config () =
  (match config.sync with
  | Group_commit span when span <= 0 ->
      invalid_arg "Node.create: group-commit span must be positive"
  | _ -> ());
  let disk =
    match disk with
    | Some d -> d
    | None -> Disk.create engine ?obs ~node ~profile:config.profile ()
  in
  { engine;
    config;
    node;
    worker;
    obs;
    disk;
    wal = Wal.create ~segment_bytes:config.segment_bytes;
    app;
    chain = None;
    snapshot_media = None;
    sealed = None;
    wal_media = no_media;
    live = true;
    gen = 0;
    last_snapshot_upto = -1;
    flusher_running = false;
    snapshots = 0;
    recovers = 0;
    replayed = 0;
    torn_discards = 0 }

let disk t = t.disk
let attach_chain t f = t.chain <- Some f
let live t = t.live

let stats t =
  { s_fsyncs = Disk.fsyncs t.disk;
    s_snapshots = t.snapshots;
    s_recovers = t.recovers;
    s_replayed = t.replayed;
    s_torn_discards = t.torn_discards;
    s_bytes = Disk.bytes_written t.disk }

(* ---------- durability ---------- *)

(* Flush everything appended so far; blocks the calling fiber. *)
let sync t =
  if t.live && Wal.pending_frames t.wal > 0 then begin
    let upto = Wal.total_frames t.wal in
    Disk.fsync t.disk;
    Wal.mark_durable_upto t.wal upto
  end

let maybe_start_flusher t =
  match t.config.sync with
  | Group_commit span when not t.flusher_running ->
      t.flusher_running <- true;
      Fiber.spawn t.engine (fun () ->
          while true do
            Fiber.sleep t.engine span;
            sync t
          done)
  | _ -> ()

(* ---------- snapshots ---------- *)

let take_snapshot t ~store ~upto ~era =
  let app, app_hash =
    match t.app with
    | Some a -> (a.Recovery.app_snapshot (), a.Recovery.app_hash ())
    | None -> ("", "")
  in
  match Snapshot.seal ~prev:t.sealed ~wal:(Some t.wal) ~store ~upto ~era ~app ~app_hash with
  | None -> ()
  | Some image ->
      t.last_snapshot_upto <- upto;
      t.sealed <- Some image;
      let bytes = Snapshot.length image in
      let gen = t.gen in
      (* The image is a point-in-time value (its segments are
         immutable); writing it out and truncating the WAL happens off
         the hot path. *)
      Fiber.spawn t.engine (fun () ->
          let t_begin = Engine.now t.engine in
          if t.live && t.gen = gen then begin
            ignore (Disk.write t.disk ~bytes);
            let frames = Wal.total_frames t.wal in
            Disk.fsync ~name:"snapshot_fsync" t.disk;
            if t.live && t.gen = gen then begin
              t.snapshot_media <- Some image;
              Wal.mark_durable_upto t.wal frames;
              ignore (Wal.truncate t.wal ~upto);
              t.snapshots <- t.snapshots + 1;
              Fl_obs.Obs.span t.obs ~cat:"disk" ~name:"snapshot" ~node:t.node
                ~worker:t.worker ~round:upto
                ~args:
                  [ ("bytes", string_of_int bytes);
                    ("upto", string_of_int upto) ]
                ~t_begin ~t_end:(Engine.now t.engine) ()
            end
          end)

let maybe_snapshot t ~upto ~era =
  if
    t.config.snapshot_interval > 0
    && upto - t.last_snapshot_upto >= t.config.snapshot_interval
  then
    match t.chain with
    | Some chain ->
        let store, _, _ = chain () in
        take_snapshot t ~store ~upto ~era
    | None -> ()

(* ---------- hot-path logging ---------- *)

let log_record t record =
  let bytes = Wal.append t.wal record in
  let t_begin = Engine.now t.engine in
  let t_end = Disk.write t.disk ~bytes in
  Fl_obs.Obs.span t.obs ~cat:"disk" ~name:"wal_append" ~node:t.node
    ~worker:t.worker
    ~round:(Wal.round_of record)
    ~args:[ ("bytes", string_of_int bytes) ]
    ~t_begin ~t_end ()

let log_append t ~block ~signature =
  if t.live then begin
    log_record t (Wal.Append { block; signature });
    match t.config.sync with Every_block -> sync t | _ -> ()
  end

let log_truncate t ~from =
  if t.live then log_record t (Wal.Truncate { from })

(* A bare definiteness/era watermark, without feeding blocks to the
   application — used when recovery bumps the era (no block became
   definite, but the new era must survive a crash) and when replaying
   already-applied state. *)
let log_watermark t ~upto ~era =
  if t.live then log_record t (Wal.Definite { upto; era })

let log_definite t ~upto ~era block =
  if t.live then begin
    (match t.app with Some a -> a.Recovery.app_apply block | None -> ());
    log_record t (Wal.Definite { upto; era });
    maybe_snapshot t ~upto ~era
  end

(* ---------- faults ---------- *)

(* Freeze the media at the durability watermark — what a power cut
   leaves on disk. [torn] additionally leaves a partial fragment of
   the first in-flight frame (a torn tail write). *)
let power_fail t ~torn =
  if t.live then begin
    t.wal_media <- Wal.power_fail_image t.wal ~torn;
    t.live <- false;
    t.gen <- t.gen + 1
  end

(* Full media loss: nothing survives (the disk itself died). *)
let lose_media t =
  Disk.lose t.disk;
  t.snapshot_media <- None;
  t.wal_media <- no_media;
  if t.live then begin
    t.live <- false;
    t.gen <- t.gen + 1
  end

(* ---------- recovery ---------- *)

(* Bytes sitting on the frozen media (snapshot + WAL image). Only
   meaningful between [power_fail] and [recover] — the boot path reads
   this much sequentially off the device, which is what a restarting
   instance charges as its boot delay. *)
let media_bytes t =
  Fl_wire.Sparse.length t.wal_media
  + match t.snapshot_media with Some i -> Snapshot.length i | None -> 0

(* Parse the frozen media back into node state and go live again.
   [None] = nothing durable (first boot, or the media was lost):
   the caller starts from genesis and catches up over the network. *)
let recover t =
  if t.live then None
  else begin
    let t_begin = Engine.now t.engine in
    let media = t.wal_media in
    t.gen <- t.gen + 1;
    t.live <- true;
    t.recovers <- t.recovers + 1;
    t.wal_media <- no_media;
    let r =
      Recovery.run
        ~snapshot_media:(Option.map Snapshot.piece t.snapshot_media)
        ~wal_media:media ~app:t.app
    in
    if r.Recovery.r_torn then t.torn_discards <- t.torn_discards + 1;
    t.replayed <- t.replayed + r.Recovery.r_records;
    (* the valid record prefix becomes the live WAL again, fully
       durable (it just came off the media) *)
    Wal.reset_to_frames t.wal r.Recovery.r_frames;
    t.last_snapshot_upto <- r.Recovery.r_snapshot_upto;
    if Store.length r.Recovery.r_store = 0 && not r.Recovery.r_from_snapshot
    then begin
      Fl_obs.Obs.instant t.obs ~cat:"disk" ~name:"cold_start" ~node:t.node
        ~worker:t.worker ~at:(Engine.now t.engine) ();
      None
    end
    else begin
      Fl_obs.Obs.span t.obs ~cat:"disk" ~name:"replay" ~node:t.node
        ~worker:t.worker
        ~round:(Store.length r.Recovery.r_store - 1)
        ~args:
          [ ("records", string_of_int r.Recovery.r_records);
            ("torn", string_of_bool r.Recovery.r_torn);
            ("definite", string_of_int r.Recovery.r_definite) ]
        ~t_begin ~t_end:(Engine.now t.engine) ();
      Some r
    end
  end
