open Fl_sim
open Fl_net
open Fl_wire

type 'a msg =
  | Submit of 'a
  | Pre_prepare of { view : int; seq : int; batch : 'a list }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | View_change of {
      new_view : int;
      last_exec : int;
      prepared : (int * int * string * 'a list) list;
          (* (seq, view, digest, batch) *)
    }
  | New_view of {
      view : int;
      vcs : (int * (int * (int * int * string * 'a list) list)) list;
          (* (sender, (last_exec, prepared)) *)
    }
  | Stop

(* In-body codec, parameterized over the payload codec; the carrier
   protocol (recovery's [Rb]/[Ab] or the baseline cluster) owns the
   envelope. *)
let write_list write_item w items =
  Codec.Writer.varint w (List.length items);
  List.iter (write_item w) items

let read_list read_item r =
  let n = Codec.Reader.seq_len r in
  List.init n (fun _ -> read_item r)

let write_prepared write_payload w (seq, view, digest, batch) =
  Codec.Writer.varint w seq;
  Codec.Writer.varint w view;
  Codec.Writer.bytes w digest;
  write_list write_payload w batch

let read_prepared read_payload r =
  let seq = Codec.Reader.varint r in
  let view = Codec.Reader.varint r in
  let digest = Codec.Reader.bytes r in
  let batch = read_list read_payload r in
  (seq, view, digest, batch)

let write_msg write_payload w = function
  | Submit p ->
      Codec.Writer.u8 w 0;
      write_payload w p
  | Pre_prepare { view; seq; batch } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.varint w view;
      Codec.Writer.varint w seq;
      write_list write_payload w batch
  | Prepare { view; seq; digest } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.varint w view;
      Codec.Writer.varint w seq;
      Codec.Writer.bytes w digest
  | Commit { view; seq; digest } ->
      Codec.Writer.u8 w 3;
      Codec.Writer.varint w view;
      Codec.Writer.varint w seq;
      Codec.Writer.bytes w digest
  | View_change { new_view; last_exec; prepared } ->
      Codec.Writer.u8 w 4;
      Codec.Writer.varint w new_view;
      Codec.Writer.varint w last_exec;
      write_list (write_prepared write_payload) w prepared
  | New_view { view; vcs } ->
      Codec.Writer.u8 w 5;
      Codec.Writer.varint w view;
      write_list
        (fun w (sender, (last_exec, prepared)) ->
          Codec.Writer.varint w sender;
          Codec.Writer.varint w last_exec;
          write_list (write_prepared write_payload) w prepared)
        w vcs
  | Stop -> Codec.Writer.u8 w 6

let read_msg read_payload r =
  match Codec.Reader.u8 r with
  | 0 -> Submit (read_payload r)
  | 1 ->
      let view = Codec.Reader.varint r in
      let seq = Codec.Reader.varint r in
      let batch = read_list read_payload r in
      Pre_prepare { view; seq; batch }
  | 2 ->
      let view = Codec.Reader.varint r in
      let seq = Codec.Reader.varint r in
      let digest = Codec.Reader.bytes r in
      Prepare { view; seq; digest }
  | 3 ->
      let view = Codec.Reader.varint r in
      let seq = Codec.Reader.varint r in
      let digest = Codec.Reader.bytes r in
      Commit { view; seq; digest }
  | 4 ->
      let new_view = Codec.Reader.varint r in
      let last_exec = Codec.Reader.varint r in
      let prepared = read_list (read_prepared read_payload) r in
      View_change { new_view; last_exec; prepared }
  | 5 ->
      let view = Codec.Reader.varint r in
      let vcs =
        read_list
          (fun r ->
            let sender = Codec.Reader.varint r in
            let last_exec = Codec.Reader.varint r in
            let prepared = read_list (read_prepared read_payload) r in
            (sender, (last_exec, prepared)))
          r
      in
      New_view { view; vcs }
  | 6 -> Stop
  | t -> raise (Codec.Malformed (Printf.sprintf "pbft: tag %d" t))

type 'a config = {
  payload_digest : 'a -> string;
  max_batch : int;
  window : int;
  base_timeout : Time.t;
  payload_cpu : 'a -> Time.t;
}

(* CPU per PREPARE/COMMIT vote: BFT-SMaRt authenticates with MAC
   vectors, not per-message asymmetric signatures, so a vote costs
   microseconds. *)
let vote_cpu = Time.us 2

let default_config ~payload_digest =
  { payload_digest;
    max_batch = 1000;
    window = 8;
    base_timeout = Time.ms 300;
    payload_cpu = (fun _ -> 0) }

type 'a entry = {
  mutable e_view : int;
  mutable batch : 'a list option;
  mutable digest : string;
  mutable prepared : bool;
  mutable committed : bool;
  mutable executed : bool;
}

type 'a t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  channel : 'a msg Channel.t;
  cpu : Cpu.t;
  config : 'a config;
  deliver : seq:int -> 'a -> unit;
  (* Replica state *)
  mutable view : int;
  mutable in_vc : bool;
  mutable vc_target : int;  (* highest view we have view-changed to *)
  mutable last_exec : int;
  mutable next_seq : int;   (* last sequence number proposed (leader) *)
  log : (int, 'a entry) Hashtbl.t;
  prepare_votes : (int * int * string, unit) Tally.t;
  commit_votes : (int * int * string, unit) Tally.t;
  vc_store : (int, int * (int * int * string * 'a list) list) Tally.t;
  new_view_done : (int, unit) Hashtbl.t;
  pending : 'a Queue.t;         (* leader: submissions not yet proposed *)
  proposed : (string, unit) Hashtbl.t;  (* leader: digests already batched *)
  outstanding : (string, 'a) Hashtbl.t;  (* our own unexecuted payloads *)
  expected : (string, unit) Hashtbl.t;
      (* payload digests we have seen submitted but not executed; arms
         the view-change watchdog at every replica, not just the
         submitter *)
  mutable last_progress : Time.t;
  mutable stopped : bool;
}

let batch_digest config batch =
  Fl_crypto.Sha256.digest_with (fun ctx ->
      List.iter
        (fun p -> Fl_crypto.Sha256.feed_string ctx (config.payload_digest p))
        batch)

let leader_of t view = view mod t.channel.Channel.n
let is_leader t = leader_of t t.view = t.channel.Channel.self
let quorum t = (2 * t.channel.Channel.f) + 1

let entry t seq =
  match Hashtbl.find_opt t.log seq with
  | Some e -> e
  | None ->
      let e =
        { e_view = -1;
          batch = None;
          digest = "";
          prepared = false;
          committed = false;
          executed = false }
      in
      Hashtbl.add t.log seq e;
      e

let bcast t m = t.channel.Channel.bcast m
let send t ~dst m = t.channel.Channel.send ~dst m

let forward_to_leader t payload =
  if is_leader t then Queue.push payload t.pending
  else send t ~dst:(leader_of t t.view) (Submit payload)

(* Leader: propose pending submissions while the window allows. *)
let rec try_propose t =
  if
    is_leader t && (not t.in_vc) && (not t.stopped)
    && t.next_seq - t.last_exec < t.config.window
    && not (Queue.is_empty t.pending)
  then begin
    let batch = ref [] in
    let count = ref 0 in
    while !count < t.config.max_batch && not (Queue.is_empty t.pending) do
      let p = Queue.pop t.pending in
      let d = t.config.payload_digest p in
      if not (Hashtbl.mem t.proposed d) then begin
        Hashtbl.add t.proposed d ();
        batch := p :: !batch;
        incr count
      end
    done;
    let batch = List.rev !batch in
    if batch <> [] then begin
      t.next_seq <- t.next_seq + 1;
      Fl_metrics.Recorder.incr t.recorder "pbft_proposals";
      bcast t (Pre_prepare { view = t.view; seq = t.next_seq; batch })
    end;
    if not (Queue.is_empty t.pending) then try_propose t
  end

let rec try_execute t =
  let seq = t.last_exec + 1 in
  match Hashtbl.find_opt t.log seq with
  | Some e when e.committed && not e.executed -> (
      match e.batch with
      | None -> ()
      | Some batch ->
          e.executed <- true;
          t.last_exec <- seq;
          t.last_progress <- Engine.now t.engine;
          List.iter
            (fun p ->
              let d = t.config.payload_digest p in
              Hashtbl.remove t.outstanding d;
              Hashtbl.remove t.expected d;
              t.deliver ~seq p)
            batch;
          Fl_metrics.Recorder.incr t.recorder "pbft_executions";
          try_propose t;
          try_execute t)
  | _ -> ()

let try_advance t seq =
  let e = entry t seq in
  match e.batch with
  | None -> ()
  | Some _ ->
      let key = (e.e_view, seq, e.digest) in
      if (not e.prepared) && Tally.count t.prepare_votes key >= quorum t
      then begin
        e.prepared <- true;
        bcast t (Commit { view = e.e_view; seq; digest = e.digest })
      end;
      if
        e.prepared && (not e.committed)
        && Tally.count t.commit_votes key >= quorum t
      then begin
        e.committed <- true;
        try_execute t
      end

(* Entries prepared locally but not yet executed: carried into view
   changes so the new view cannot lose a possibly-committed batch. *)
let prepared_set t =
  Hashtbl.fold
    (fun seq e acc ->
      match e.batch with
      | Some batch when e.prepared && not e.executed ->
          (seq, e.e_view, e.digest, batch) :: acc
      | _ -> acc)
    t.log []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let start_view_change t new_view =
  if new_view > t.vc_target && not t.stopped then begin
    t.vc_target <- new_view;
    t.in_vc <- true;
    t.last_progress <- Engine.now t.engine;
    Fl_metrics.Recorder.incr t.recorder "pbft_view_changes";
    let prepared = prepared_set t in
    bcast t (View_change { new_view; last_exec = t.last_exec; prepared })
  end

(* Deterministic merge of a view-change certificate: re-propose, for
   every non-executed sequence number up to the highest prepared one,
   the prepared batch with the highest view (or an empty no-op). *)
let merge_vcs vcs =
  let min_le =
    List.fold_left (fun acc (_, (le, _)) -> min acc le) max_int vcs
  in
  let max_seq =
    List.fold_left
      (fun acc (_, (_, prepared)) ->
        List.fold_left (fun a (s, _, _, _) -> max a s) acc prepared)
      min_le vcs
  in
  let pick seq =
    List.fold_left
      (fun best (_, (_, prepared)) ->
        List.fold_left
          (fun best (s, v, d, b) ->
            if s <> seq then best
            else
              match best with
              | Some (v', _, _) when v' >= v -> best
              | _ -> Some (v, d, b))
          best prepared)
      None vcs
  in
  let rec go seq acc =
    if seq > max_seq then List.rev acc
    else
      let item =
        match pick seq with
        | Some (_, _, batch) -> (seq, batch)
        | None -> (seq, [])
      in
      go (seq + 1) (item :: acc)
  in
  (min_le, max_seq, go (min_le + 1) [])

let adopt_new_view t v vcs =
  t.view <- v;
  t.vc_target <- max t.vc_target v;
  t.in_vc <- false;
  t.last_progress <- Engine.now t.engine;
  let _, max_seq, reproposals = merge_vcs vcs in
  List.iter
    (fun (seq, batch) ->
      if seq > t.last_exec then begin
        let e = entry t seq in
        if not e.executed then begin
          e.e_view <- v;
          e.batch <- Some batch;
          e.digest <- batch_digest t.config batch;
          e.prepared <- false;
          e.committed <- false;
          bcast t (Prepare { view = v; seq; digest = e.digest })
        end
      end)
    reproposals;
  t.next_seq <- max t.next_seq max_seq;
  (* Requests possibly lost with the old leader are re-submitted. *)
  Hashtbl.iter (fun _ p -> forward_to_leader t p) t.outstanding;
  try_propose t

let valid_new_view t vcs =
  List.length vcs >= quorum t
  &&
  let senders = List.map fst vcs in
  List.length (List.sort_uniq compare senders) = List.length vcs

let handle t (src, msg) =
  match msg with
  | Stop -> t.stopped <- true
  | Submit payload ->
      if is_leader t then begin
        Queue.push payload t.pending;
        try_propose t
      end
      else begin
        (* Not the leader (stale view at the sender, or a timeout
           re-broadcast): re-forward, and arm our own watchdog so a
           faulty leader cannot silently drop the request. *)
        let d = t.config.payload_digest payload in
        if not (Hashtbl.mem t.expected d) then begin
          Hashtbl.replace t.expected d ();
          t.last_progress <- max t.last_progress (Engine.now t.engine);
          forward_to_leader t payload
        end
      end
  | Pre_prepare { view; seq; batch } ->
      if view = t.view && (not t.in_vc) && src = leader_of t view then begin
        let e = entry t seq in
        (* Accept fresh sequence numbers, and overwrite entries left
           behind by an older view: anything globally prepared there
           was re-proposed through the NEW-VIEW merge (and carries the
           new view already); a merely pre-prepared leftover was never
           executable and must yield to the new leader. *)
        if (e.batch = None || e.e_view < view) && not e.executed then begin
          e.prepared <- false;
          e.committed <- false;
          List.iter (fun p -> Cpu.charge t.cpu (t.config.payload_cpu p)) batch;
          e.e_view <- view;
          e.batch <- Some batch;
          e.digest <- batch_digest t.config batch;
          bcast t (Prepare { view; seq; digest = e.digest });
          try_advance t seq
        end
      end
  | Prepare { view; seq; digest } ->
      Cpu.charge t.cpu vote_cpu;
      if Tally.add t.prepare_votes (view, seq, digest) ~src () then
        try_advance t seq
  | Commit { view; seq; digest } ->
      Cpu.charge t.cpu vote_cpu;
      if Tally.add t.commit_votes (view, seq, digest) ~src () then
        try_advance t seq
  | View_change { new_view; last_exec; prepared } ->
      if
        new_view > t.view
        && Tally.add t.vc_store new_view ~src (last_exec, prepared)
      then begin
        let c = Tally.count t.vc_store new_view in
        (* Join a view change backed by at least one correct node. *)
        if c >= t.channel.Channel.f + 1 then start_view_change t new_view;
        if
          c >= quorum t
          && leader_of t new_view = t.channel.Channel.self
          && (not (Hashtbl.mem t.new_view_done new_view))
          && t.view < new_view
        then begin
          Hashtbl.add t.new_view_done new_view ();
          let vcs =
            Tally.fold t.vc_store new_view (fun s d acc -> (s, d) :: acc) []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
            |> List.filteri (fun i _ -> i < quorum t)
          in
          bcast t (New_view { view = new_view; vcs })
        end
      end
  | New_view { view; vcs } ->
      if view > t.view && src = leader_of t view && valid_new_view t vcs then
        adopt_new_view t view vcs

let timeout_of t = t.config.base_timeout * (1 lsl min 10 t.vc_target)

let expecting_progress t =
  Hashtbl.length t.outstanding > 0
  || Hashtbl.length t.expected > 0
  || Hashtbl.fold
       (fun _ e acc -> acc || (e.batch <> None && not e.executed))
       t.log false

let create engine ~recorder ~channel ~cpu ~config ~deliver =
  let t =
    { engine;
      recorder;
      channel;
      cpu;
      config;
      deliver;
      view = 0;
      in_vc = false;
      vc_target = 0;
      last_exec = 0;
      next_seq = 0;
      log = Hashtbl.create 64;
      prepare_votes = Tally.create 64;
      commit_votes = Tally.create 64;
      vc_store = Tally.create 4;
      new_view_done = Hashtbl.create 4;
      pending = Queue.create ();
      proposed = Hashtbl.create 64;
      outstanding = Hashtbl.create 16;
      expected = Hashtbl.create 16;
      last_progress = Engine.now engine;
      stopped = false }
  in
  Fiber.spawn engine (fun () ->
      while not t.stopped do
        handle t (t.channel.Channel.recv ())
      done;
      t.channel.Channel.close ());
  (* View-change watchdog. *)
  Fiber.spawn engine (fun () ->
      while not t.stopped do
        Fiber.sleep engine (t.config.base_timeout / 2);
        if
          (not t.stopped) && expecting_progress t
          && Engine.now engine - t.last_progress > timeout_of t
        then begin
          (* Re-broadcast our stuck requests to every replica (PBFT's
             client-timeout rule) so all watchdogs arm, then demand a
             new view. *)
          Hashtbl.iter (fun _ p -> bcast t (Submit p)) t.outstanding;
          start_view_change t (t.vc_target + 1)
        end
      done);
  t

let submit t payload =
  Hashtbl.replace t.outstanding (t.config.payload_digest payload) payload;
  t.last_progress <- max t.last_progress (Engine.now t.engine);
  forward_to_leader t payload;
  if is_leader t then try_propose t

let stop t =
  if not t.stopped then
    t.channel.Channel.send ~dst:t.channel.Channel.self Stop

(* Synchronous stop for teardown paths where the self-send of [stop]
   would never be delivered (e.g. the node's inbox was just replaced
   by a cold restart). The dispatcher and watchdog fibers observe the
   flag on their next wake-up and exit. *)
let halt t = t.stopped <- true

let view t = t.view
