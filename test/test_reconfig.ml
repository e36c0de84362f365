(* Dynamic membership, scripted: a node joins a live cluster under
   open-loop load (state transfer + catch-up before voting), a donor
   crash during the transfer is survived by donor rotation with
   backoff, a rolling restart of every node preserves safety, and a
   decided Leave shrinks the rotation to exactly the surviving
   members. The randomized counterpart is the @reconfig explorer
   sweep; these pin the individual mechanisms. *)

open Fl_sim
open Fl_fireledger

let quick_config n =
  { (Config.default ~n) with
    Config.batch_size = 10;
    tx_size = 32;
    initial_timeout = Time.ms 20 }

let min_definite_of c ids =
  List.fold_left
    (fun acc i -> min acc (Instance.definite_upto c.Cluster.instances.(i)))
    max_int ids

(* Open-loop client load: admit a paying transaction into [node]'s
   pool every [period]. The instance is resolved at each tick, so the
   load survives cold restarts replacing the instance in place. *)
let attach_load c ~node ~period =
  let seq = ref 0 in
  Fiber.spawn c.Cluster.engine (fun () ->
      while true do
        incr seq;
        ignore
          (Fl_chain.Mempool.admit
             (Instance.mempool c.Cluster.instances.(node))
             (Fl_chain.Tx.create ~id:(500_000 + !seq) ~size:32)
             ~fee:1);
        Fiber.sleep c.Cluster.engine period
      done)

(* ---- rotation over a shrunk member set (unit) ---- *)

let test_rotation_set_members () =
  let config = Config.default ~n:5 in
  let rot = Rotation.create config ~seed:7 in
  Rotation.set_members rot [| 0; 1; 2; 4 |];
  Alcotest.(check (array int)) "members installed" [| 0; 1; 2; 4 |]
    (Rotation.members rot);
  (* From any member, one full walk of successors visits exactly the
     member set — the departed node never appears in any round's
     rotation order. *)
  List.iter
    (fun round ->
      let visited = ref [ 0 ] in
      let cur = ref 0 in
      for _ = 1 to 3 do
        cur := Rotation.successor rot ~round !cur;
        visited := !cur :: !visited
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "walk at round %d covers live members" round)
        [ 0; 1; 2; 4 ]
        (List.sort compare !visited))
    [ 0; 17; 123; 4096 ];
  (* [eligible] skips recent proposers but still never leaves the
     member set. *)
  let e = Rotation.eligible rot ~round:9 ~recent:[ 1 ] 1 in
  Alcotest.(check bool) "eligible avoids recent" true (e <> 1);
  Alcotest.(check bool) "eligible stays in members" true
    (Array.exists (fun m -> m = e) (Rotation.members rot))

(* ---- epoch successor arithmetic (unit) ---- *)

let test_epoch_succession () =
  let g = Epoch.genesis ~universe:5 () in
  Alcotest.(check int) "genesis n" 5 (Epoch.n g);
  (match Epoch.succeed ~universe:5 g [ Epoch.Leave 4 ] ~activation:20 with
  | None -> Alcotest.fail "leave must produce a successor"
  | Some e ->
      Alcotest.(check int) "shrunk n" 4 (Epoch.n e);
      Alcotest.(check int) "f re-derived" 1 (Epoch.f e);
      Alcotest.(check bool) "leaver out" false (Epoch.is_member e 4);
      Alcotest.(check int) "activation" 20 e.Epoch.activation;
      Alcotest.(check int) "index" 1 e.Epoch.index);
  (* Invalid changes are skipped, not fatal: leaving a non-member or
     joining a present member changes nothing. *)
  Alcotest.(check bool) "no-op changes yield no successor" true
    (Epoch.succeed ~universe:5 g [ Epoch.Join 2 ] ~activation:20 = None);
  (* The reconfiguration payload round-trips and ordinary payloads are
     rejected in O(1). *)
  let tx = Epoch.reconfig_tx (Epoch.Join 4) in
  Alcotest.(check bool) "payload round-trips" true
    (Epoch.change_of_payload tx.Fl_chain.Tx.payload = Some (Epoch.Join 4));
  Alcotest.(check bool) "garbage rejected" true
    (Epoch.change_of_payload "not-a-reconfig-frame" = None)

(* ---- join a live cluster under open-loop load ---- *)

let test_join_under_load () =
  let transfers = ref 0 in
  let output i =
    if i = 4 then
      { Instance.null_output with
        Instance.on_transfer =
          (fun ~upto ~chunks ~retries:_ ->
            incr transfers;
            Alcotest.(check bool) "transfer covers a prefix" true (upto >= 0);
            Alcotest.(check bool) "chunked" true (chunks > 0)) }
    else Instance.null_output
  in
  let c =
    Cluster.create ~seed:11 ~members:[ 0; 1; 2; 3 ] ~output
      ~config:(quick_config 5) ()
  in
  attach_load c ~node:0 ~period:(Time.ms 2);
  Cluster.start c;
  Cluster.run ~until:(Time.ms 400) c;
  Alcotest.(check bool) "joiner starts outside" false
    (Instance.is_member c.Cluster.instances.(4));
  Alcotest.(check bool) "live quorum decides" true
    (min_definite_of c [ 0; 1; 2; 3 ] > 5);
  Instance.submit_reconfig c.Cluster.instances.(0) (Epoch.Join 4);
  Cluster.run ~until:(Time.s 3) c;
  Alcotest.(check int) "epoch scheduled" 1
    (Instance.epochs_scheduled c.Cluster.instances.(0));
  Alcotest.(check bool) "joiner admitted" true
    (Instance.is_member c.Cluster.instances.(4));
  Alcotest.(check int) "exactly one state transfer" 1 !transfers;
  Alcotest.(check int) "all five members" 5
    (Epoch.n (Instance.active_epoch c.Cluster.instances.(0)));
  Alcotest.(check bool) "agreement with joiner" true
    (Cluster.definite_prefix_agreement c);
  (* The joiner is really voting: its definite watermark tracks the
     veterans past the activation round. *)
  let act =
    (Instance.active_epoch c.Cluster.instances.(0)).Epoch.activation
  in
  Alcotest.(check bool) "joiner decides past activation" true
    (Instance.definite_upto c.Cluster.instances.(4) > act)

(* ---- donor crash during state transfer ---- *)

let test_donor_crash_mid_transfer () =
  let retries_seen = ref (-1) in
  let output i =
    if i = 4 then
      { Instance.null_output with
        Instance.on_transfer =
          (fun ~upto:_ ~chunks:_ ~retries -> retries_seen := retries) }
    else Instance.null_output
  in
  let c =
    Cluster.create ~seed:13 ~members:[ 0; 1; 2; 3 ] ~output
      ~config:(quick_config 5) ()
  in
  Cluster.start c;
  Cluster.run ~until:(Time.ms 300) c;
  (* The joiner's donor rotation starts at member 0 — kill it, so the
     first Snap_req times out and the transfer must back off and
     re-pick a live donor. The remaining three members are exactly the
     n - f quorum, so the cluster keeps deciding throughout. *)
  Cluster.crash c 0;
  Instance.submit_reconfig c.Cluster.instances.(1) (Epoch.Join 4);
  Cluster.run ~until:(Time.s 4) c;
  Alcotest.(check bool) "joiner admitted despite dead donor" true
    (Instance.is_member c.Cluster.instances.(4));
  Alcotest.(check bool)
    (Printf.sprintf "transfer retried (retries=%d)" !retries_seen)
    true (!retries_seen >= 1);
  Alcotest.(check bool) "survivors + joiner agree" true
    (Cluster.definite_prefix_agreement c);
  Alcotest.(check bool) "progress with joiner voting" true
    (min_definite_of c [ 1; 2; 3; 4 ]
    > (Instance.active_epoch c.Cluster.instances.(1)).Epoch.activation)

(* ---- rolling restart of every node ---- *)

let test_rolling_restart () =
  let ledger = Conservation.create ~node:0 in
  let c =
    Cluster.create ~seed:17 ~persist:Fl_persist.Node.default_config
      ~output:(Conservation.output ledger) ~config:(quick_config 4) ()
  in
  Conservation.attach_load ledger c ~period:(Time.ms 5);
  Cluster.start c;
  Cluster.run ~until:(Time.ms 400) c;
  let before = min_definite_of c [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "warm before the roll" true (before > 5);
  (* One node at a time: crash, let the survivors work, cold-restart
     (recovering from the durability layer), settle, move on. *)
  let t = ref (Time.ms 400) in
  for i = 0 to 3 do
    Cluster.crash c i;
    t := !t + Time.ms 60;
    Cluster.run ~until:!t c;
    Cluster.restart c i;
    (* the cold restart lost node 0's pool: account from here on *)
    if i = 0 then Conservation.reset ledger;
    t := !t + Time.ms 240;
    Cluster.run ~until:!t c
  done;
  Cluster.run ~until:(!t + Time.s 2) c;
  Alcotest.(check bool) "agreement after the roll" true
    (Cluster.definite_prefix_agreement c);
  let after = min_definite_of c [ 0; 1; 2; 3 ] in
  Alcotest.(check bool)
    (Printf.sprintf "liveness through the roll (%d -> %d)" before after)
    true
    (after > before + 10);
  Alcotest.(check int) "every node restarted once" 4
    (Array.fold_left ( + ) 0 c.Cluster.incarnation);
  (* A restarted node's WAL-recovered tentative rounds were rescinded
     while it was down: the catch-up sync must drop them to re-link. *)
  Alcotest.(check bool) "catch-up rescinded a dead tentative suffix" true
    (Fl_metrics.Recorder.counter c.Cluster.recorder "catchup_rescinds" > 0);
  Conservation.check ledger c

(* ---- decided Leave shrinks the rotation to the survivors ---- *)

let test_shrink_rotates_survivors_only () =
  let c = Cluster.create ~seed:19 ~config:(quick_config 5) () in
  Cluster.start c;
  Cluster.run ~until:(Time.ms 300) c;
  Instance.submit_reconfig c.Cluster.instances.(0) (Epoch.Leave 4);
  Cluster.run ~until:(Time.s 3) c;
  let inst = c.Cluster.instances.(0) in
  Alcotest.(check int) "epoch scheduled" 1 (Instance.epochs_scheduled inst);
  let e = Instance.active_epoch inst in
  Alcotest.(check int) "post-shrink n" 4 (Epoch.n e);
  Alcotest.(check bool) "leaver excluded" false (Epoch.is_member e 4);
  Alcotest.(check bool) "leaver knows it left" false
    (Instance.is_member c.Cluster.instances.(4));
  (* Regression: after activation the proposer rotation walks exactly
     the four survivors — every definite block names one of them, and
     over the decided window each survivor actually proposed. *)
  let act = e.Epoch.activation in
  let upto = Instance.definite_upto inst in
  Alcotest.(check bool) "a full rotation window decided" true
    (upto >= act + 8);
  let proposed = Array.make 5 false in
  let store = Instance.store inst in
  for r = act to upto do
    match Fl_chain.Store.get store r with
    | None -> Alcotest.failf "definite round %d missing" r
    | Some b ->
        let p = b.Fl_chain.Block.header.Fl_chain.Header.proposer in
        Alcotest.(check bool)
          (Printf.sprintf "round %d proposer %d is a survivor" r p)
          true (p < 4);
        proposed.(p) <- true
  done;
  for m = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "survivor %d proposes post-shrink" m)
      true proposed.(m)
  done;
  Alcotest.(check bool) "survivors agree" true
    (Cluster.definite_prefix_agreement c)

let suite =
  [ Alcotest.test_case "rotation over shrunk members" `Quick
      test_rotation_set_members;
    Alcotest.test_case "epoch succession" `Quick test_epoch_succession;
    Alcotest.test_case "join under open-loop load" `Quick
      test_join_under_load;
    Alcotest.test_case "donor crash mid-transfer" `Quick
      test_donor_crash_mid_transfer;
    Alcotest.test_case "rolling restart keeps safety" `Quick
      test_rolling_restart;
    Alcotest.test_case "shrink rotates survivors only" `Quick
      test_shrink_rotates_survivors_only ]
