open Fl_sim
open Fl_net

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  registry : Fl_crypto.Signature.registry;
  nics : Nic.t array;
  cpus : Cpu.t array;
  net : Msg.t Net.t;
  instances : Instance.t array;
  crashed : (int, unit) Hashtbl.t;
  persist : Fl_persist.Node.t option array;
  incarnation : int array;
  rebuild : int -> int -> Instance.t;  (* node id, incarnation *)
  mutable on_restart : int -> unit;
}

let create ?(seed = 42) ?(latency = Latency.single_dc)
    ?(bandwidth_of = fun _ -> Nic.ten_gbps)
    ?(behavior = fun _ -> Instance.Honest) ?obs
    ?(config_of = fun _ c -> c) ?(output = fun _ -> Instance.null_output)
    ?(halves_of = fun _ -> None) ?persist:persist_config
    ?(persist_app = fun _ -> None) ?members ~config () =
  Config.validate config;
  let n = config.Config.n in
  (* The transport universe (NICs, registry, inboxes) is always sized
     [n]; [members] restricts the genesis membership epoch — nodes
     outside it boot as joiners and only vote once a decided
     reconfiguration admits them. *)
  let genesis_epoch = Epoch.genesis ?members ~universe:n () in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Fl_metrics.Recorder.create engine in
  let registry =
    Fl_crypto.Signature.create_registry
      ~seed:(Printf.sprintf "cluster-%d" seed)
      ~n
  in
  let nics =
    Array.init n (fun i -> Nic.create ~bandwidth_bps:(bandwidth_of i))
  in
  let cpus = Array.init n (fun _ -> Cpu.create engine ~cores:4) in
  let net =
    Net.create engine (Rng.named_split rng "net") ~nics ~latency
      ~decode:Msg.decode
  in
  (match obs with
  | None -> ()
  | Some sink ->
      Net.set_obs ~worker:0 net (Some sink);
      Fl_obs.Obs.attach_engine sink engine;
      Array.iteri (fun i cpu -> Fl_obs.Obs.attach_cpu sink ~node:i cpu) cpus);
  let crashed = Hashtbl.create 4 in
  (* Durability layers outlive instance rebuilds: one per node for the
     whole cluster lifetime, so a cold restart finds the frozen media
     of the crashed incarnation. Absent entirely when persistence is
     off — zero engine events, traces byte-identical. *)
  let persist =
    match persist_config with
    | None -> Array.make n None
    | Some pc ->
        Array.init n (fun i ->
            Some
              (Fl_persist.Node.create engine ?obs ~node:i ?app:(persist_app i)
                 ~config:pc ()))
  in
  let mk_instance i ~incarnation =
    (* A frame that fails to decode (bit flipped, truncated) is
       dropped and counted at the hub, like a NIC checksum discard. *)
    let on_malformed ~src ~bytes =
      Fl_metrics.Recorder.incr recorder "decode_errors";
      Fl_obs.Obs.instant obs ~cat:"net" ~name:"decode_error" ~node:i
        ~worker:0
        ~args:[ ("src", string_of_int src); ("bytes", string_of_int bytes) ]
        ~at:(Engine.now engine) ()
    in
    let hub =
      Hub.create engine ~inbox:(Net.inbox net i) ~on_malformed ~key:Msg.key ()
    in
    let env =
      { Env.engine;
        (* [named_split] is label-keyed (same label → same stream), so
           each incarnation needs its own label or the rebuilt node
           would replay the dead one's random choices from the top. *)
        rng =
          Rng.named_split rng
            (if incarnation = 0 then Printf.sprintf "node-%d" i
             else Printf.sprintf "node-%d-r%d" i incarnation);
        recorder;
        registry;
        cost = Fl_crypto.Cost_model.default;
        cpu = cpus.(i);
        net;
        hub;
        me = i;
        seed;
        label = "w0";
        obs;
        worker = 0 }
    in
    let config =
      let c = config_of i config in
      (* Per-node tweaks may skew timers etc. but never the
         cluster shape. *)
      if c.Config.n <> config.Config.n || c.Config.f <> config.Config.f
      then invalid_arg "Cluster.create: config_of must preserve n and f";
      Config.validate c;
      c
    in
    Instance.create env ~config ~behavior:(behavior i)
      ?persist:persist.(i) ?halves:(halves_of i) ~epoch:genesis_epoch
      ~output:(output i) ()
  in
  let instances = Array.init n (fun i -> mk_instance i ~incarnation:0) in
  { engine;
    recorder;
    registry;
    nics;
    cpus;
    net;
    instances;
    crashed;
    persist;
    incarnation = Array.make n 0;
    rebuild = (fun i inc -> mk_instance i ~incarnation:inc);
    on_restart = (fun _ -> ()) }

let start t = Array.iter Instance.start t.instances
let set_on_restart t f = t.on_restart <- f
let persist_node t i = t.persist.(i)

let crash_filter t =
  if Hashtbl.length t.crashed = 0 then None
  else
    Some
      (fun ~src ~dst ->
        (not (Hashtbl.mem t.crashed src)) && not (Hashtbl.mem t.crashed dst))

let crash ?(torn = false) t i =
  Hashtbl.replace t.crashed i ();
  Net.set_filter t.net (crash_filter t);
  match t.persist.(i) with
  | Some p -> Fl_persist.Node.power_fail p ~torn
  | None -> ()

(* A crash loses all volatile state. Tear the dead incarnation down
   synchronously, abandon its inbox (parked fibers never wake), and
   build a fresh instance that either recovers from its durability
   layer or starts from genesis and network-catches-up. *)
let restart t i =
  Hashtbl.remove t.crashed i;
  Net.set_filter t.net (crash_filter t);
  Instance.shutdown t.instances.(i);
  Net.reset_inbox t.net i;
  t.incarnation.(i) <- t.incarnation.(i) + 1;
  let fresh = t.rebuild i t.incarnation.(i) in
  t.instances.(i) <- fresh;
  Instance.start fresh;
  t.on_restart i

let run ?until t = Engine.run ?until t.engine

type split = Diverged | Missing

let disagreements ~crashed instances =
  let n = Array.length instances in
  let first_split a b =
    let upto = min (Instance.definite_upto a) (Instance.definite_upto b) in
    let rec walk r =
      if r > upto then None
      else
        match
          ( Fl_chain.Store.get (Instance.store a) r,
            Fl_chain.Store.get (Instance.store b) r )
        with
        | Some ba, Some bb ->
            if
              String.equal (Fl_chain.Block.hash ba) (Fl_chain.Block.hash bb)
            then walk (r + 1)
            else Some (r, Diverged)
        | _ -> Some (r, Missing)
    in
    walk 0
  in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (not (Hashtbl.mem crashed i)) && not (Hashtbl.mem crashed j) then
        match first_split instances.(i) instances.(j) with
        | Some (r, split) -> acc := (i, j, r, split) :: !acc
        | None -> ()
    done
  done;
  List.rev !acc

let agreement ~crashed instances = disagreements ~crashed instances = []

let definite_prefix_agreement t = agreement ~crashed:t.crashed t.instances
