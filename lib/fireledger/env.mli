(** Everything a FireLedger instance needs from its surroundings: the
    simulation world, this node's identity and shared resources. One
    env per (node, worker). *)

type t = {
  engine : Fl_sim.Engine.t;
  rng : Fl_sim.Rng.t;  (** private stream of this instance *)
  recorder : Fl_metrics.Recorder.t;
  registry : Fl_crypto.Signature.registry;
  cost : Fl_crypto.Cost_model.t;
  cpu : Fl_sim.Cpu.t;  (** the node's CPU, shared by its workers *)
  net : Msg.t Fl_net.Net.t;  (** this worker's network instance *)
  hub : Msg.t Fl_net.Hub.t;
  me : int;
  f : int;  (** resilience parameter, shared with Config.f *)
  seed : int;  (** experiment seed (common coin, rotation) *)
  label : string;  (** worker label, namespaces coin instances *)
  obs : Fl_obs.Obs.t option;  (** span sink, [None] = off *)
  worker : int;  (** FLO worker index, [0] standalone, for attribution *)
}
