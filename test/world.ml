(* Shared scaffolding for protocol tests: a small simulated cluster
   with one network instance and per-node hubs/CPUs. The network
   carries frames ({!Fl_wire.Sparse} pieces), so a world is built around a message
   codec: [encode] is used by channels at the send boundary, [decode]
   by the network, once per frame, with the result shared by every
   receiver of that frame (each hub still drops and counts the
   malformed frames it receives). Hubs are created lazily — a hub's
   dispatcher fiber consumes the node's inbox, so tests that read
   inboxes directly must not trigger them. *)

open Fl_sim
open Fl_net

type 'm t = {
  engine : Engine.t;
  rng : Rng.t;
  recorder : Fl_metrics.Recorder.t;
  nics : Nic.t array;
  net : 'm Net.t;
  hubs : 'm Hub.t option array;
  hub_key : 'm -> string;
  encode : 'm -> Fl_wire.Sparse.t;
  cpus : Cpu.t array;
  n : int;
  f : int;
}

let make ?(seed = 42) ?(latency = Latency.single_dc) ?(cores = 4) ~n ~key
    ~encode ~decode () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let nics = Array.init n (fun _ -> Nic.create ~bandwidth_bps:Nic.ten_gbps) in
  let net =
    Net.create engine (Rng.named_split rng "net") ~nics ~latency ~decode
  in
  let cpus = Array.init n (fun _ -> Cpu.create engine ~cores) in
  { engine;
    rng;
    recorder = Fl_metrics.Recorder.create engine;
    nics;
    net;
    hubs = Array.make n None;
    hub_key = key;
    encode;
    cpus;
    n;
    f = (n - 1) / 3 }

let hub w node =
  match w.hubs.(node) with
  | Some h -> h
  | None ->
      let h =
        Hub.create w.engine ~inbox:(Net.inbox w.net node) ~key:w.hub_key ()
      in
      w.hubs.(node) <- Some h;
      h

let channel w ~node ~key =
  Channel.of_hub (hub w node) ~key ~net:w.net ~self:node ~f:w.f
    ~encode:w.encode ~inj:Fun.id ~prj:Fun.id

let run ?until w = Engine.run ?until w.engine
