open Fl_sim
open Fl_net
open Fl_fireledger

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  nics : Nic.t array;
  cpus : Cpu.t array;
  nets : Msg.t Net.t array;
  nodes : Node.t array;
  workers : Instance.t array array;
  crashed : (int, unit) Hashtbl.t;
}

let create ?(seed = 42) ?(latency = Latency.single_dc)
    ?(cost = Fl_crypto.Cost_model.default) ?(cores = 4)
    ?(bandwidth_bps = Nic.ten_gbps) ?(behavior = fun _ -> Instance.Honest)
    ?valid ?obs ?(keep_log = false)
    ?(on_deliver = fun ~node:_ _ -> ()) ?persist:persist_config ~config
    ~workers () =
  Config.validate config;
  if workers <= 0 then invalid_arg "Flo.Cluster.create: workers";
  let n = config.Config.n in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Fl_metrics.Recorder.create engine in
  let registry =
    Fl_crypto.Signature.create_registry
      ~seed:(Printf.sprintf "flo-%d" seed)
      ~n
  in
  let nics = Array.init n (fun _ -> Nic.create ~bandwidth_bps) in
  let cpus = Array.init n (fun _ -> Cpu.create engine ~cores) in
  let nets =
    Array.init workers (fun w ->
        let net =
          Net.create engine
            (Rng.named_split rng (Printf.sprintf "net-%d" w))
            ~nics ~latency ~decode:Msg.decode
        in
        (match obs with
        | Some sink -> Net.set_obs ~worker:w net (Some sink)
        | None -> ());
        net)
  in
  (match obs with
  | None -> ()
  | Some sink ->
      Fl_obs.Obs.attach_engine sink engine;
      Array.iteri (fun i cpu -> Fl_obs.Obs.attach_cpu sink ~node:i cpu) cpus);
  let nodes =
    Array.init n (fun i ->
        Node.create ~engine ~recorder ~node_id:i ~n_workers:workers ~keep_log
          ~on_deliver:(fun d -> on_deliver ~node:i d)
          ?obs ())
  in
  (* One storage device per node, shared by its ω workers' durability
     layers — WAL appends and fsyncs of different workers queue on the
     same device, the disk-side twin of the shared-NIC contention. *)
  let disks =
    match persist_config with
    | None -> Array.make n None
    | Some (pc : Fl_persist.Node.config) ->
        Array.init n (fun i ->
            Some
              (Fl_persist.Disk.create engine ?obs ~node:i
                 ~profile:pc.Fl_persist.Node.profile ()))
  in
  let persist =
    match persist_config with
    | None -> Array.make n (Array.make workers None)
    | Some pc ->
        Array.init n (fun i ->
            Array.init workers (fun w ->
                Some
                  (Fl_persist.Node.create engine ?obs ~node:i ~worker:w
                     ?disk:disks.(i) ~config:pc ())))
  in
  let workers_arr =
    Array.init n (fun i ->
        Array.init workers (fun w ->
            let hub =
              Hub.create engine ~inbox:(Net.inbox nets.(w) i)
                ~on_malformed:(fun ~src:_ ~bytes:_ ->
                  Fl_metrics.Recorder.incr recorder "decode_errors")
                ~key:Msg.key ()
            in
            let env =
              { Env.engine;
                rng = Rng.named_split rng (Printf.sprintf "node-%d-%d" i w);
                recorder;
                registry;
                cost;
                cpu = cpus.(i);
                net = nets.(w);
                hub;
                me = i;
                seed = seed + (1_000_003 * w);
                label = Printf.sprintf "w%d" w;
                obs;
                worker = w }
            in
            Instance.create env ~config ~behavior:(behavior i) ?valid
              ?persist:persist.(i).(w)
              ~output:(Node.output_for nodes.(i) ~worker:w)
              ()))
  in
  Array.iteri (fun i node -> Node.attach_workers node workers_arr.(i)) nodes;
  { engine;
    recorder;
    nics;
    cpus;
    nets;
    nodes;
    workers = workers_arr;
    crashed = Hashtbl.create 4 }

let start t =
  Array.iter (fun per_node -> Array.iter Instance.start per_node) t.workers

let crash t i =
  Hashtbl.replace t.crashed i ();
  let filter ~src ~dst =
    (not (Hashtbl.mem t.crashed src)) && not (Hashtbl.mem t.crashed dst)
  in
  Array.iter (fun net -> Net.set_filter net (Some filter)) t.nets

let run ?until t = Engine.run ?until t.engine

let delivery_agreement t =
  let group w = Array.map (fun per_node -> per_node.(w)) t.workers in
  Array.for_all Fun.id
    (Array.mapi
       (fun w _net ->
         Fl_fireledger.Cluster.agreement ~crashed:t.crashed (group w))
       t.nets)
