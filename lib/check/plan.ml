open Fl_sim

type fault =
  | Crash of { node : int; at_ms : int; restart_ms : int option }
  | Partition of { groups : int list list; at_ms : int; heal_ms : int }
  | Loss of { node : int; prob : float; from_ms : int; to_ms : int }
  | Equivocate of { node : int }
  | Slow_nic of { node : int; factor : float }
  | Clock_skew of { node : int; factor : float }
  | Torn_tail of { node : int; at_ms : int; restart_ms : int }
  | Disk_loss of { node : int; at_ms : int; restart_ms : int }
  | Fsync_stall of { node : int; from_ms : int; to_ms : int }
  | Corrupt of { node : int; prob : float; from_ms : int; to_ms : int }
  | Surge of { factor : float; from_ms : int; to_ms : int }
  | Join of { node : int; at_ms : int }
  | Leave of { node : int; at_ms : int }
  | Rolling of { from_ms : int; gap_ms : int; down_ms : int }

type t = { n : int; f : int; seed : int; faults : fault list }

(* ---------- derived views ---------- *)

let dedup xs = List.sort_uniq compare xs

let byzantine t =
  dedup
    (List.filter_map
       (function Equivocate { node } -> Some node | _ -> None)
       t.faults)

let crashed t =
  dedup
    (List.filter_map
       (function
         | Crash { node; _ } | Torn_tail { node; _ } | Disk_loss { node; _ } ->
             Some node
         | _ -> None)
       t.faults)

let faulty t = dedup (byzantine t @ crashed t)

let restarted t =
  dedup
    (List.filter_map
       (function
         | Crash { node; restart_ms = Some _; _ }
         | Torn_tail { node; _ }
         | Disk_loss { node; _ } ->
             Some node
         | _ -> None)
       t.faults)

let has_disk_faults t =
  List.exists
    (function
      | Torn_tail _ | Disk_loss _ | Fsync_stall _ -> true | _ -> false)
    t.faults

let has_surge_faults t =
  List.exists (function Surge _ -> true | _ -> false) t.faults

let joiners t =
  dedup
    (List.filter_map
       (function Join { node; _ } -> Some node | _ -> None)
       t.faults)

let leavers t =
  dedup
    (List.filter_map
       (function Leave { node; _ } -> Some node | _ -> None)
       t.faults)

let has_rolling t =
  List.exists (function Rolling _ -> true | _ -> false) t.faults

let has_reconfig_faults t =
  List.exists
    (function Join _ | Leave _ | Rolling _ -> true | _ -> false)
    t.faults

let surge_windows t =
  List.filter_map
    (function
      | Surge { factor; from_ms; to_ms } -> Some (factor, from_ms, to_ms)
      | _ -> None)
    t.faults

let expect_liveness t =
  List.for_all
    (function
      (* load surges stress admission, never consensus liveness;
         reconfiguration and rolling restarts must preserve it *)
      | Crash _ | Equivocate _ | Torn_tail _ | Disk_loss _ | Surge _
      | Join _ | Leave _ | Rolling _ ->
          true
      | Partition _ | Loss _ | Slow_nic _ | Clock_skew _ | Fsync_stall _
      | Corrupt _ ->
          false)
    t.faults

(* ---------- generation ---------- *)

(* Draw [k] distinct nodes from [0, n) that are not in [avoid]. *)
let distinct_nodes rng ~n ~k ~avoid =
  let picked = ref [] in
  let guard = ref (16 * n) in
  while List.length !picked < k && !guard > 0 do
    decr guard;
    let v = Rng.int rng n in
    if (not (List.mem v avoid)) && not (List.mem v !picked) then
      picked := v :: !picked
  done;
  !picked

(* Reconfiguration plans have their own generator: membership changes
   interact with every fault family, so the sweep that must converge
   to zero violations over every seed sticks to the families whose
   liveness expectation is unconditional (crash-restart, rolling
   restart, surge) and keeps the anchor — the member that submits the
   reconfiguration transactions — fault-free. Universe sizes are 5 and
   8 so member-count transitions (4↔5, 7↔8) preserve f. *)
let generate_reconfig ?n ~seed ~budget_ms () =
  let rng = Rng.named_split (Rng.create seed) "plan-reconfig" in
  let n = match n with Some n -> n | None -> if Rng.bool rng then 5 else 8 in
  let f = (n - 1) / 3 in
  let early lo_pct hi_pct =
    Rng.int_in rng (budget_ms * lo_pct / 100) (budget_ms * hi_pct / 100)
  in
  let joiner = n - 1 in
  let faults = ref [ Join { node = joiner; at_ms = early 10 25 } ] in
  (* maybe shrink back: a leave submitted once the join has activated
     (the apply hook defers it), keeping every transition f-preserving *)
  let leaver =
    if Rng.bool rng then begin
      let node = 1 + Rng.int rng (n - 2) in
      faults := Leave { node; at_ms = early 45 60 } :: !faults;
      Some node
    end
    else None
  in
  (match Rng.int rng 3 with
  | 0 ->
      (* leave with f crash-restarts in flight *)
      let avoid = [ 0; joiner ] @ Option.to_list leaver in
      let nodes = distinct_nodes rng ~n ~k:f ~avoid in
      List.iter
        (fun node ->
          let at_ms = early 30 45 in
          let restart_ms =
            Rng.int_in rng (at_ms + 100) (budget_ms * 75 / 100)
          in
          faults := Crash { node; at_ms; restart_ms = Some restart_ms } :: !faults)
        nodes
  | 1 ->
      (* rolling restart of the whole cluster during a surge *)
      let from_ms = budget_ms * 55 / 100 in
      let gap_ms = max 80 (budget_ms * 40 / 100 / n) in
      let down_ms = max 40 (gap_ms / 2) in
      faults := Rolling { from_ms; gap_ms; down_ms } :: !faults;
      faults :=
        Surge
          { factor = 2.0 +. Rng.float rng 2.0;
            from_ms = early 10 20;
            to_ms = budget_ms * 80 / 100 }
        :: !faults
  | _ ->
      (* join under open-loop load *)
      faults :=
        Surge
          { factor = 2.0 +. Rng.float rng 4.0;
            from_ms = early 15 30;
            to_ms = budget_ms * 70 / 100 }
        :: !faults);
  { n; f; seed; faults = List.rev !faults }

let generate_base ~with_disk_faults ~with_corrupt_faults ~with_surge_faults
    ?n ~seed ~budget_ms () =
  let rng = Rng.named_split (Rng.create seed) "plan" in
  let n = match n with Some n -> n | None -> if Rng.bool rng then 4 else 7 in
  let f = (n - 1) / 3 in
  let early lo_pct hi_pct =
    (* a time in [lo_pct, hi_pct] percent of the budget *)
    Rng.int_in rng (budget_ms * lo_pct / 100) (budget_ms * hi_pct / 100)
  in
  let faults = ref [] in
  (* Process faults: |byzantine ∪ crashed| ≤ f. *)
  let n_byz = Rng.int rng (f + 1) in
  let byz = distinct_nodes rng ~n ~k:n_byz ~avoid:[] in
  List.iter (fun node -> faults := Equivocate { node } :: !faults) byz;
  let n_crash = Rng.int rng (f - n_byz + 1) in
  let crash_nodes = distinct_nodes rng ~n ~k:n_crash ~avoid:byz in
  List.iter
    (fun node ->
      let at_ms = early 5 45 in
      let restart_ms =
        if Rng.bool rng then Some (Rng.int_in rng (at_ms + 50) (budget_ms * 70 / 100))
        else None
      in
      faults := Crash { node; at_ms; restart_ms } :: !faults)
    crash_nodes;
  (* Network faults: benign, may hit anyone, always time-bounded. *)
  if Rng.int rng 3 = 0 then begin
    (* split into two groups; one side is a random nonempty proper
       subset, the rest are implicit *)
    let size = Rng.int_in rng 1 (n - 1) in
    let side = distinct_nodes rng ~n ~k:size ~avoid:[] in
    let at_ms = early 5 30 in
    let heal_ms = Rng.int_in rng (at_ms + 50) (budget_ms * 60 / 100) in
    faults := Partition { groups = [ List.sort compare side ]; at_ms; heal_ms } :: !faults
  end;
  if Rng.int rng 3 = 0 then begin
    let node = Rng.int rng n in
    let prob = 0.05 +. Rng.float rng 0.35 in
    let from_ms = early 5 30 in
    let to_ms = Rng.int_in rng (from_ms + 50) (budget_ms * 60 / 100) in
    faults := Loss { node; prob; from_ms; to_ms } :: !faults
  end;
  if Rng.int rng 4 = 0 then begin
    let node = Rng.int rng n in
    let factor = 2.0 +. Rng.float rng 14.0 in
    faults := Slow_nic { node; factor } :: !faults
  end;
  if Rng.int rng 4 = 0 then begin
    let node = Rng.int rng n in
    (* < 1 = fast clock (spurious timeouts), > 1 = slow clock *)
    let factor = if Rng.bool rng then 0.5 +. Rng.float rng 0.4 else 1.25 +. Rng.float rng 1.75 in
    faults := Clock_skew { node; factor } :: !faults
  end;
  (* Disk faults last: drawn behind a flag, strictly after every other
     draw, so persistence-off plans for a given seed are byte-identical
     with and without this feature compiled in. *)
  if with_disk_faults then begin
    let used = byz @ crash_nodes in
    let spare = f - List.length used in
    (if spare > 0 && Rng.bool rng then
       match distinct_nodes rng ~n ~k:1 ~avoid:used with
       | [ node ] ->
           let at_ms = early 10 40 in
           let restart_ms =
             Rng.int_in rng (at_ms + 100) (budget_ms * 70 / 100)
           in
           let fault =
             if Rng.bool rng then Torn_tail { node; at_ms; restart_ms }
             else Disk_loss { node; at_ms; restart_ms }
           in
           faults := fault :: !faults
       | _ -> ());
    (* device-level, benign: may hit anyone *)
    if Rng.int rng 3 = 0 then begin
      let node = Rng.int rng n in
      let from_ms = early 5 30 in
      let to_ms = Rng.int_in rng (from_ms + 50) (budget_ms * 60 / 100) in
      faults := Fsync_stall { node; from_ms; to_ms } :: !faults
    end
  end;
  (* Byte-fault windows last of all: behind their own flag, drawn
     strictly after both the base draws and the disk-fault draws, so
     every plan a given seed produced before this feature existed is
     byte-identical with the flag off. Corruption is benign in the BFT
     model (a correct receiver CRC-drops the frame — it degenerates to
     omission), so any node may be hit; but like loss it can stall
     progress past any fixed bound, hence [expect_liveness] is false. *)
  if with_corrupt_faults then begin
    let n_windows = 1 + Rng.int rng 2 in
    for _ = 1 to n_windows do
      let node = Rng.int rng n in
      let prob = 0.05 +. Rng.float rng 0.45 in
      let from_ms = early 5 30 in
      let to_ms = Rng.int_in rng (from_ms + 50) (budget_ms * 60 / 100) in
      faults := Corrupt { node; prob; from_ms; to_ms } :: !faults
    done
  end;
  (* Traffic surges last: behind their own flag and drawn strictly
     after every earlier family, so pre-existing plans for a given
     seed replay byte-identically with the flag off. A surge is a
     flash-crowd multiplier on the open-loop client source over a time
     window — it stresses admission (backpressure, fee eviction),
     never consensus. *)
  if with_surge_faults then begin
    let factor = 2.0 +. Rng.float rng 6.0 in
    let from_ms = early 10 40 in
    let to_ms = Rng.int_in rng (from_ms + 50) (budget_ms * 70 / 100) in
    faults := Surge { factor; from_ms; to_ms } :: !faults
  end;
  { n; f; seed; faults = List.rev !faults }

let generate ?(with_disk_faults = false) ?(with_corrupt_faults = false)
    ?(with_surge_faults = false) ?(with_reconfig_faults = false) ?n ~seed
    ~budget_ms () =
  if with_reconfig_faults then generate_reconfig ?n ~seed ~budget_ms ()
  else
    generate_base ~with_disk_faults ~with_corrupt_faults ~with_surge_faults
      ?n ~seed ~budget_ms ()

(* ---------- validation ---------- *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let in_range node = node >= 0 && node < t.n in
  if t.n <= 0 || t.f < 0 || 3 * t.f >= t.n then err "bad n/f (%d/%d)" t.n t.f
  else if List.length (faulty t) > t.f then
    err "process-fault budget exceeded: %d faulty > f=%d"
      (List.length (faulty t))
      t.f
  else
    List.fold_left
      (fun acc fault ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match fault with
            | Crash { node; at_ms; restart_ms } ->
                if not (in_range node) then err "crash: node %d" node
                else if at_ms < 0 then err "crash: at %d" at_ms
                else (
                  match restart_ms with
                  | Some r when r <= at_ms -> err "crash: restart %d <= at %d" r at_ms
                  | _ -> Ok ())
            | Partition { groups; at_ms; heal_ms } ->
                if heal_ms <= at_ms then err "partition: heal %d <= at %d" heal_ms at_ms
                else if
                  not (List.for_all (List.for_all in_range) groups)
                then err "partition: node out of range"
                else Ok ()
            | Loss { node; prob; from_ms; to_ms } ->
                if not (in_range node) then err "loss: node %d" node
                else if prob < 0.0 || prob > 1.0 then err "loss: prob %f" prob
                else if to_ms <= from_ms then err "loss: window"
                else Ok ()
            | Equivocate { node } ->
                if in_range node then Ok () else err "eq: node %d" node
            | Slow_nic { node; factor } ->
                if not (in_range node) then err "slow: node %d" node
                else if factor <= 0.0 then err "slow: factor %f" factor
                else Ok ()
            | Clock_skew { node; factor } ->
                if not (in_range node) then err "skew: node %d" node
                else if factor <= 0.0 then err "skew: factor %f" factor
                else Ok ()
            | Torn_tail { node; at_ms; restart_ms }
            | Disk_loss { node; at_ms; restart_ms } ->
                if not (in_range node) then err "disk: node %d" node
                else if at_ms < 0 then err "disk: at %d" at_ms
                else if restart_ms <= at_ms then
                  err "disk: restart %d <= at %d" restart_ms at_ms
                else Ok ()
            | Fsync_stall { node; from_ms; to_ms } ->
                if not (in_range node) then err "stall: node %d" node
                else if to_ms <= from_ms then err "stall: window"
                else Ok ()
            | Corrupt { node; prob; from_ms; to_ms } ->
                if not (in_range node) then err "corrupt: node %d" node
                else if prob < 0.0 || prob > 1.0 then
                  err "corrupt: prob %f" prob
                else if to_ms <= from_ms then err "corrupt: window"
                else Ok ()
            | Surge { factor; from_ms; to_ms } ->
                if factor <= 0.0 then err "surge: factor %f" factor
                else if from_ms < 0 then err "surge: from %d" from_ms
                else if to_ms <= from_ms then err "surge: window"
                else Ok ()
            | Join { node; at_ms } ->
                if not (in_range node) then err "join: node %d" node
                else if at_ms < 0 then err "join: at %d" at_ms
                else Ok ()
            | Leave { node; at_ms } ->
                if not (in_range node) then err "leave: node %d" node
                else if at_ms < 0 then err "leave: at %d" at_ms
                else Ok ()
            | Rolling { from_ms; gap_ms; down_ms } ->
                (* sequential by construction: the next node only goes
                   down after the previous one is back *)
                if from_ms < 0 then err "rolling: from %d" from_ms
                else if down_ms <= 0 then err "rolling: down %d" down_ms
                else if gap_ms <= down_ms then
                  err "rolling: gap %d <= down %d" gap_ms down_ms
                else Ok ()))
      (Ok ()) t.faults

(* ---------- cluster wiring ---------- *)

let behavior t i =
  if List.mem i (byzantine t) then Fl_fireledger.Instance.Equivocator
  else Fl_fireledger.Instance.Honest

let bandwidth_of t i =
  let base = Fl_net.Nic.ten_gbps in
  List.fold_left
    (fun bw fault ->
      match fault with
      | Slow_nic { node; factor } when node = i -> bw /. factor
      | _ -> bw)
    base t.faults

let config_of t i (c : Fl_fireledger.Config.t) =
  List.fold_left
    (fun (c : Fl_fireledger.Config.t) fault ->
      match fault with
      | Clock_skew { node; factor } when node = i ->
          let scale x = max 1 (int_of_float (float_of_int x *. factor)) in
          { c with
            Fl_fireledger.Config.initial_timeout = scale c.Fl_fireledger.Config.initial_timeout;
            min_timeout = scale c.Fl_fireledger.Config.min_timeout;
            max_timeout =
              max (scale c.Fl_fireledger.Config.max_timeout)
                (scale c.Fl_fireledger.Config.initial_timeout) }
      | _ -> c)
    c t.faults

(* The member that submits reconfiguration transactions: lowest-id
   node that is neither joining, leaving nor process-faulty — it is
   guaranteed to stay in the membership for the whole run. *)
let anchor t =
  let avoid = faulty t @ joiners t @ leavers t in
  let rec go i = if i >= t.n then 0 else if List.mem i avoid then go (i + 1) else i in
  go 0

let apply t ~engine ~cluster =
  let at ms action = ignore (Engine.schedule engine ~delay:(Time.ms ms) action) in
  let net = cluster.Fl_fireledger.Cluster.net in
  (* Reconfiguration transactions enter through the anchor's mempool at
     fire time — resolved late, so a restarted anchor's fresh instance
     is used. A [Leave] additionally waits until any pending [Join] has
     activated (the anchor's active epoch spans the full universe), so
     every member-count transition the sweep generates is
     f-preserving; the retry loop dies with the engine at budget end. *)
  let submit_when ready change =
    let rec attempt () =
      let a = cluster.Fl_fireledger.Cluster.instances.(anchor t) in
      if
        (not (Hashtbl.mem cluster.Fl_fireledger.Cluster.crashed (anchor t)))
        && ready a
      then Fl_fireledger.Instance.submit_reconfig a change
      else ignore (Engine.schedule engine ~delay:(Time.ms 100) attempt)
    in
    attempt
  in
  List.iter
    (function
      | Equivocate _ | Slow_nic _ | Clock_skew _ -> ()  (* construction-time *)
      | Surge _ -> ()  (* consumed by the traffic source, not the net *)
      | Join { node; at_ms } ->
          at at_ms
            (submit_when (fun _ -> true) (Fl_fireledger.Epoch.Join node))
      | Leave { node; at_ms } ->
          at at_ms
            (submit_when
               (fun a ->
                 Fl_fireledger.Epoch.n (Fl_fireledger.Instance.active_epoch a)
                 = t.n)
               (Fl_fireledger.Epoch.Leave node))
      | Rolling { from_ms; gap_ms; down_ms } ->
          for i = 0 to t.n - 1 do
            let start = from_ms + (i * gap_ms) in
            at start (fun () -> Fl_fireledger.Cluster.crash cluster i);
            at (start + down_ms) (fun () ->
                Fl_fireledger.Cluster.restart cluster i)
          done
      | Crash { node; at_ms; restart_ms } ->
          at at_ms (fun () -> Fl_fireledger.Cluster.crash cluster node);
          Option.iter
            (fun r -> at r (fun () -> Fl_fireledger.Cluster.restart cluster node))
            restart_ms
      | Partition { groups; at_ms; heal_ms } ->
          at at_ms (fun () -> Fl_net.Net.set_partition net groups);
          at heal_ms (fun () -> Fl_net.Net.heal net)
      | Loss { node; prob; from_ms; to_ms } ->
          at from_ms (fun () -> Fl_net.Net.set_loss net ~node prob);
          at to_ms (fun () -> Fl_net.Net.set_loss net ~node 0.0)
      | Corrupt { node; prob; from_ms; to_ms } ->
          (* byte faults on the wire: the receiver's envelope CRC must
             catch and drop them — observable as decode_errors *)
          at from_ms (fun () -> Fl_net.Net.set_corrupt net ~node prob);
          at to_ms (fun () -> Fl_net.Net.set_corrupt net ~node 0.0)
      | Torn_tail { node; at_ms; restart_ms } ->
          (* power cut mid-write: the WAL tail frame is torn *)
          at at_ms (fun () ->
              Fl_fireledger.Cluster.crash ~torn:true cluster node);
          at restart_ms (fun () ->
              Fl_fireledger.Cluster.restart cluster node)
      | Disk_loss { node; at_ms; restart_ms } ->
          (* crash plus device death: recovery finds empty media and
             must fall back to genesis + network catch-up *)
          at at_ms (fun () ->
              Fl_fireledger.Cluster.crash cluster node;
              match Fl_fireledger.Cluster.persist_node cluster node with
              | Some p -> Fl_persist.Node.lose_media p
              | None -> ());
          at restart_ms (fun () ->
              Fl_fireledger.Cluster.restart cluster node)
      | Fsync_stall { node; from_ms; to_ms } ->
          at from_ms (fun () ->
              match Fl_fireledger.Cluster.persist_node cluster node with
              | Some p ->
                  Fl_persist.Disk.set_stall
                    (Fl_persist.Node.disk p)
                    ~until:(Time.ms to_ms)
              | None -> ()))
    t.faults

(* ---------- serialisation ---------- *)

(* The shortest of two renderings that reads back as the same float,
   so a printed plan replays exactly what ran. *)
let float_repr x =
  let s = Printf.sprintf "%.15g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let string_of_fault = function
  | Crash { node; at_ms; restart_ms = None } ->
      Printf.sprintf "crash=%d@%d" node at_ms
  | Crash { node; at_ms; restart_ms = Some r } ->
      Printf.sprintf "crash=%d@%d/%d" node at_ms r
  | Partition { groups; at_ms; heal_ms } ->
      Printf.sprintf "part=%s@%d-%d"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "." (List.map string_of_int g))
              groups))
        at_ms heal_ms
  | Loss { node; prob; from_ms; to_ms } ->
      Printf.sprintf "loss=%d:%s@%d-%d" node (float_repr prob) from_ms
        to_ms
  | Equivocate { node } -> Printf.sprintf "eq=%d" node
  | Slow_nic { node; factor } ->
      Printf.sprintf "slow=%d:%s" node (float_repr factor)
  | Clock_skew { node; factor } ->
      Printf.sprintf "skew=%d:%s" node (float_repr factor)
  | Torn_tail { node; at_ms; restart_ms } ->
      Printf.sprintf "torn=%d@%d/%d" node at_ms restart_ms
  | Disk_loss { node; at_ms; restart_ms } ->
      Printf.sprintf "disklost=%d@%d/%d" node at_ms restart_ms
  | Fsync_stall { node; from_ms; to_ms } ->
      Printf.sprintf "stall=%d@%d-%d" node from_ms to_ms
  | Corrupt { node; prob; from_ms; to_ms } ->
      Printf.sprintf "corrupt=%d:%s@%d-%d" node (float_repr prob) from_ms
        to_ms
  | Surge { factor; from_ms; to_ms } ->
      Printf.sprintf "surge=%s@%d-%d" (float_repr factor) from_ms to_ms
  | Join { node; at_ms } -> Printf.sprintf "join=%d@%d" node at_ms
  | Leave { node; at_ms } -> Printf.sprintf "leave=%d@%d" node at_ms
  | Rolling { from_ms; gap_ms; down_ms } ->
      Printf.sprintf "rolling=%d/%d/%d" from_ms gap_ms down_ms

let to_string t =
  String.concat ";"
    (Printf.sprintf "n=%d,f=%d,seed=%d" t.n t.f t.seed
    :: List.map string_of_fault t.faults)

let parse_fault tok =
  let invalid () = Error (Printf.sprintf "unparseable fault %S" tok) in
  match String.index_opt tok '=' with
  | None -> invalid ()
  | Some i -> (
      let key = String.sub tok 0 i in
      let v = String.sub tok (i + 1) (String.length tok - i - 1) in
      try
        match key with
        | "eq" -> Ok (Equivocate { node = int_of_string v })
        | "crash" -> (
            match String.split_on_char '@' v with
            | [ node; times ] -> (
                let node = int_of_string node in
                match String.split_on_char '/' times with
                | [ a ] ->
                    Ok (Crash { node; at_ms = int_of_string a; restart_ms = None })
                | [ a; r ] ->
                    Ok
                      (Crash
                         { node;
                           at_ms = int_of_string a;
                           restart_ms = Some (int_of_string r) })
                | _ -> invalid ())
            | _ -> invalid ())
        | "part" -> (
            match String.split_on_char '@' v with
            | [ groups; window ] -> (
                let groups =
                  String.split_on_char '|' groups
                  |> List.map (fun g ->
                         String.split_on_char '.' g |> List.map int_of_string)
                in
                match String.split_on_char '-' window with
                | [ a; h ] ->
                    Ok
                      (Partition
                         { groups;
                           at_ms = int_of_string a;
                           heal_ms = int_of_string h })
                | _ -> invalid ())
            | _ -> invalid ())
        | "loss" | "corrupt" -> (
            match String.split_on_char '@' v with
            | [ np; window ] -> (
                match
                  (String.split_on_char ':' np, String.split_on_char '-' window)
                with
                | [ node; prob ], [ a; b ] ->
                    let node = int_of_string node
                    and prob = float_of_string prob
                    and from_ms = int_of_string a
                    and to_ms = int_of_string b in
                    if String.equal key "loss" then
                      Ok (Loss { node; prob; from_ms; to_ms })
                    else Ok (Corrupt { node; prob; from_ms; to_ms })
                | _ -> invalid ())
            | _ -> invalid ())
        | "slow" | "skew" -> (
            match String.split_on_char ':' v with
            | [ node; factor ] ->
                let node = int_of_string node
                and factor = float_of_string factor in
                if String.equal key "slow" then Ok (Slow_nic { node; factor })
                else Ok (Clock_skew { node; factor })
            | _ -> invalid ())
        | "torn" | "disklost" -> (
            match String.split_on_char '@' v with
            | [ node; times ] -> (
                let node = int_of_string node in
                match String.split_on_char '/' times with
                | [ a; r ] ->
                    let at_ms = int_of_string a
                    and restart_ms = int_of_string r in
                    if String.equal key "torn" then
                      Ok (Torn_tail { node; at_ms; restart_ms })
                    else Ok (Disk_loss { node; at_ms; restart_ms })
                | _ -> invalid ())
            | _ -> invalid ())
        | "surge" -> (
            match String.split_on_char '@' v with
            | [ factor; window ] -> (
                let factor = float_of_string factor in
                match String.split_on_char '-' window with
                | [ a; b ] ->
                    Ok
                      (Surge
                         { factor;
                           from_ms = int_of_string a;
                           to_ms = int_of_string b })
                | _ -> invalid ())
            | _ -> invalid ())
        | "join" | "leave" -> (
            match String.split_on_char '@' v with
            | [ node; at ] ->
                let node = int_of_string node and at_ms = int_of_string at in
                if String.equal key "join" then Ok (Join { node; at_ms })
                else Ok (Leave { node; at_ms })
            | _ -> invalid ())
        | "rolling" -> (
            match String.split_on_char '/' v with
            | [ a; g; d ] ->
                Ok
                  (Rolling
                     { from_ms = int_of_string a;
                       gap_ms = int_of_string g;
                       down_ms = int_of_string d })
            | _ -> invalid ())
        | "stall" -> (
            match String.split_on_char '@' v with
            | [ node; window ] -> (
                let node = int_of_string node in
                match String.split_on_char '-' window with
                | [ a; b ] ->
                    Ok
                      (Fsync_stall
                         { node;
                           from_ms = int_of_string a;
                           to_ms = int_of_string b })
                | _ -> invalid ())
            | _ -> invalid ())
        | _ -> invalid ()
      with Failure _ -> invalid ())

let of_string s =
  match String.split_on_char ';' (String.trim s) with
  | [] -> Error "empty plan"
  | header :: fault_toks -> (
      let kvs =
        String.split_on_char ',' header
        |> List.filter_map (fun kv ->
               match String.split_on_char '=' kv with
               | [ k; v ] -> ( try Some (k, int_of_string v) with Failure _ -> None)
               | _ -> None)
      in
      match
        (List.assoc_opt "n" kvs, List.assoc_opt "f" kvs, List.assoc_opt "seed" kvs)
      with
      | Some n, Some f, Some seed ->
          let rec parse acc = function
            | [] -> Ok (List.rev acc)
            | "" :: rest -> parse acc rest
            | tok :: rest -> (
                match parse_fault tok with
                | Ok fault -> parse (fault :: acc) rest
                | Error e -> Error e)
          in
          Result.bind (parse [] fault_toks) (fun faults ->
              let t = { n; f; seed; faults } in
              Result.map (fun () -> t) (validate t))
      | _ -> Error "plan header must be n=<int>,f=<int>,seed=<int>")
