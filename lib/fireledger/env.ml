(* Everything a FireLedger instance needs from its surroundings: the
   simulation world, this node's identity and shared resources. One
   env per (node, worker). *)

open Fl_sim
open Fl_net

type t = {
  engine : Engine.t;
  rng : Rng.t;  (** private stream of this instance *)
  recorder : Fl_metrics.Recorder.t;
  registry : Fl_crypto.Signature.registry;
  cost : Fl_crypto.Cost_model.t;
  cpu : Cpu.t;  (** the node's CPU, shared by its workers *)
  net : Msg.t Net.t;  (** this worker's network instance *)
  hub : Msg.t Hub.t;
  me : int;
  f : int;  (** resilience parameter, shared with Config.f *)
  seed : int;  (** experiment seed (common coin, rotation) *)
  label : string;  (** worker label, namespaces coin instances *)
  obs : Fl_obs.Obs.t option;  (** span sink, [None] = off *)
  worker : int;  (** FLO worker index, [0] standalone, for attribution *)
}

let channel env ~key =
  Channel.of_hub env.hub ~key ~net:env.net ~self:env.me ~f:env.f
    ~encode:Msg.encode ~inj:Fun.id ~prj:Fun.id
