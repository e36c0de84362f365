open Fl_sim
open Fl_fireledger

type mode = Naive | Dpor

type scenario = {
  n : int;
  f : int;
  rounds : int;
  equivocators : int list;
  splits : (int list * int list) option list;
  drops : int;
  depth : int;
  horizon_us : int;
  budget_ms : int;
  max_schedules : int;
}

let scenario ?(f = -1) ?(equivocators = []) ?(splits = [ None ]) ?(drops = 0)
    ?(depth = 8) ?(horizon_us = 50) ?(budget_ms = 400)
    ?(max_schedules = 20_000) ~n ~rounds () =
  let f = if f < 0 then (n - 1) / 3 else f in
  if n <= 0 || 3 * f >= n then invalid_arg "Mc.scenario: need 0 <= 3f < n";
  if rounds < 1 then invalid_arg "Mc.scenario: rounds";
  if drops < 0 || depth < 0 || horizon_us < 1 || budget_ms < 1 then
    invalid_arg "Mc.scenario: negative budget";
  if splits = [] then invalid_arg "Mc.scenario: empty split list";
  List.iter
    (fun e ->
      if e < 0 || e >= n then invalid_arg "Mc.scenario: equivocator id")
    equivocators;
  { n; f; rounds; equivocators; splits; drops; depth; horizon_us; budget_ms;
    max_schedules }

(* Tiny blocks and a short first timeout: a 2-round run is a few
   hundred engine events, so thousands of re-executions stay cheap.
   Constant latency keeps the network off the RNG — with per-node
   random streams lane-local, a schedule prefix then determines the
   whole execution. *)
let profile ~n ~f =
  { (Config.default ~n) with
    Config.f;
    batch_size = 2;
    tx_size = 16;
    initial_timeout = Time.ms 10 }

(* With more than f equivocators the paper's safety bound is void —
   only the accountability obligations survive. *)
let accountability_oracles =
  [ "evidence-malformed"; "evidence-codec"; "evidence-invalid";
    "false-accusation"; "accountability" ]

type run = {
  taken : int array;  (* the choice made at each decision position *)
  alternatives : int array;  (* how many choices that position offered *)
  fingerprint : string;
  run_reached : bool;
  run_dropped : int;
  run_violations : Oracle.violation list;
  run_total : int;
  run_accused : int list;
  run_evidence : int;
}

let run_one mode sc ~split ~trace =
  let config = profile ~n:sc.n ~f:sc.f in
  let is_byz i = List.mem i sc.equivocators in
  let clock = ref (fun () -> 0) in
  let oracle = Oracle.create ~now:(fun () -> !clock ()) ~n:sc.n ~f:sc.f () in
  let cluster =
    Cluster.create ~seed:0
      ~latency:(Fl_net.Latency.Constant (Time.us 100))
      ~behavior:(fun i ->
        if is_byz i then Instance.Equivocator else Instance.Honest)
      ~halves_of:(fun i -> if is_byz i then split else None)
      ~output:(Oracle.output_for oracle)
      ~config ()
  in
  let engine = cluster.Cluster.engine in
  clock := (fun () -> Engine.now engine);
  Oracle.attach_stores oracle
    (Array.map Instance.store cluster.Cluster.instances);
  (* decision bookkeeping, newest first *)
  let taken = ref [] and alternatives = ref [] in
  let pos = ref 0 and drops_used = ref 0 in
  Engine.set_arbiter ~horizon:(Time.us sc.horizon_us) engine
    (Some
       (fun ~lanes ->
         let k = Array.length lanes in
         let cs =
           match mode with
           | Naive -> Array.init k Fun.id
           | Dpor ->
               (* deliveries to different nodes commute: branch only
                  over the earliest candidate's lane, deliver
                  canonically across lanes *)
               let l0 = lanes.(0) in
               let acc = ref [] in
               for i = k - 1 downto 0 do
                 if lanes.(i) = l0 then acc := i :: !acc
               done;
               Array.of_list !acc
         in
         let m = Array.length cs in
         let alts = if !drops_used < sc.drops then 2 * m else m in
         let j = !pos in
         incr pos;
         alternatives := alts :: !alternatives;
         let c = if j < Array.length trace then trace.(j) else 0 in
         (* a prefix position always re-offers the same alternatives
            (the execution is deterministic); clamp defensively *)
         let c = if c < alts then c else 0 in
         taken := c :: !taken;
         if c < m then Engine.Deliver cs.(c)
         else begin
           incr drops_used;
           Engine.Drop cs.(c - m)
         end));
  let honest_done () =
    Array.for_all Fun.id
      (Array.mapi
         (fun i inst -> is_byz i || Instance.round inst >= sc.rounds)
         cluster.Cluster.instances)
  in
  let rec monitor () =
    if honest_done () then Engine.stop engine
    else ignore (Engine.schedule engine ~delay:(Time.us 500) monitor)
  in
  ignore (Engine.schedule engine ~delay:(Time.us 500) monitor);
  Cluster.start cluster;
  Engine.run ~until:(Time.ms sc.budget_ms) ~max_events:300_000 engine;
  let reached = honest_done () in
  let faulty = sc.equivocators in
  let expect_accused = if faulty = [] then None else Some faulty in
  Oracle.finish ?expect_accused oracle ~cluster ~faulty
    ~expect_progress:false ~min_rounds:0;
  (* mc-specific checks *)
  let extra = ref [] in
  let mc_flag ~oracle_name ~node ~round detail =
    extra :=
      { Oracle.oracle = oracle_name;
        at = Engine.now engine;
        node;
        round;
        detail }
      :: !extra
  in
  if sc.equivocators = [] then begin
    (* honest OBBC agreement is per-round, not merely per definite
       prefix: two honest nodes never hold different blocks for the
       same round (nothing can legitimately rescind without a fault) *)
    for r = 0 to sc.rounds - 1 do
      let canonical = ref None in
      Array.iteri
        (fun i inst ->
          match Fl_chain.Store.get (Instance.store inst) r with
          | None -> ()
          | Some b -> (
              let h = Fl_chain.Block.hash b in
              match !canonical with
              | None -> canonical := Some (i, h)
              | Some (i0, h0) ->
                  if not (String.equal h h0) then
                    mc_flag ~oracle_name:"mc-agreement" ~node:i ~round:r
                      (Printf.sprintf
                         "nodes %d and %d hold different blocks for round %d"
                         i0 i r)))
        cluster.Cluster.instances
    done;
    if sc.drops = 0 && not reached then
      mc_flag ~oracle_name:"mc-liveness" ~node:(-1) ~round:(-1)
        (Printf.sprintf
           "drop-free honest schedule missed %d rounds within %d ms"
           sc.rounds sc.budget_ms)
  end;
  let violations = Oracle.violations oracle @ List.rev !extra in
  let violations, total =
    if List.length sc.equivocators > sc.f then begin
      let keep =
        List.filter
          (fun v -> List.mem v.Oracle.oracle accountability_oracles)
          violations
      in
      (keep, List.length keep)
    end
    else (violations, Oracle.total oracle + List.length !extra)
  in
  let fingerprint =
    let b = Buffer.create 128 in
    Array.iteri
      (fun i inst ->
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ':';
        let store = Instance.store inst in
        for r = 0 to sc.rounds - 1 do
          (match Fl_chain.Store.get store r with
          | Some blk ->
              String.iter
                (fun ch -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code ch)))
                (String.sub (Fl_chain.Block.hash blk) 0 4)
          | None -> Buffer.add_char b '-');
          Buffer.add_char b '.'
        done;
        Buffer.add_char b '|')
      cluster.Cluster.instances;
    Buffer.contents b
  in
  { taken = Array.of_list (List.rev !taken);
    alternatives = Array.of_list (List.rev !alternatives);
    fingerprint;
    run_reached = reached;
    run_dropped = Engine.arbiter_dropped engine;
    run_violations = violations;
    run_total = total;
    run_accused = Oracle.accused oracle;
    run_evidence = Oracle.evidence_count oracle }

type stats = {
  mode : mode;
  scenario : scenario;
  interleavings : int;
  decisions : int;
  max_depth : int;
  dropped : int;
  reached : int;
  truncated : int;
  capped : bool;
  final_states : string list;
  violations : (int * Oracle.violation) list;
  total_violations : int;
  accused : int list;
  evidence_runs : int;
}

let violation_cap = 50

let enumerate mode sc =
  let runs = ref 0 and decisions = ref 0 and max_depth = ref 0 in
  let dropped = ref 0 and reached = ref 0 and truncated = ref 0 in
  let capped = ref false in
  let finals = Hashtbl.create 256 in
  let violations = ref [] and total_violations = ref 0 in
  let accused = Hashtbl.create 4 in
  let evidence_runs = ref 0 in
  List.iter
    (fun split ->
      (* stateless DFS: re-execute with each alternative prefix; the
         canonical continuation (always choice 0) completes every
         prefix into a full schedule *)
      let stack = ref [ [||] ] in
      let running = ref true in
      while !running do
        match !stack with
        | [] -> running := false
        | prefix :: rest ->
            stack := rest;
            if !runs >= sc.max_schedules then begin
              capped := true;
              running := false
            end
            else begin
              let r = run_one mode sc ~split ~trace:prefix in
              let idx = !runs in
              incr runs;
              let len = Array.length r.taken in
              decisions := !decisions + len;
              if len > !max_depth then max_depth := len;
              dropped := !dropped + r.run_dropped;
              if r.run_reached then incr reached else incr truncated;
              Hashtbl.replace finals r.fingerprint ();
              total_violations := !total_violations + r.run_total;
              List.iter
                (fun v ->
                  if List.length !violations < violation_cap then
                    violations := (idx, v) :: !violations)
                r.run_violations;
              List.iter (fun a -> Hashtbl.replace accused a ()) r.run_accused;
              if r.run_evidence > 0 then incr evidence_runs;
              let lim = min len sc.depth in
              for j = lim - 1 downto Array.length prefix do
                if r.alternatives.(j) > 1 then
                  for a = r.alternatives.(j) - 1 downto 1 do
                    let p =
                      Array.init (j + 1) (fun i ->
                          if i < j then r.taken.(i) else a)
                    in
                    stack := p :: !stack
                  done
              done
            end
      done)
    sc.splits;
  { mode;
    scenario = sc;
    interleavings = !runs;
    decisions = !decisions;
    max_depth = !max_depth;
    dropped = !dropped;
    reached = !reached;
    truncated = !truncated;
    capped = !capped;
    final_states =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) finals []);
    violations = List.rev !violations;
    total_violations = !total_violations;
    accused =
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) accused []);
    evidence_runs = !evidence_runs }

let failed s = s.total_violations > 0
