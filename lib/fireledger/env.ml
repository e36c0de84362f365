open Fl_sim
open Fl_net

type t = {
  engine : Engine.t;
  rng : Rng.t;
  recorder : Fl_metrics.Recorder.t;
  registry : Fl_crypto.Signature.registry;
  cost : Fl_crypto.Cost_model.t;
  cpu : Cpu.t;
  net : Msg.t Net.t;
  hub : Msg.t Hub.t;
  me : int;
  seed : int;
  label : string;
  obs : Fl_obs.Obs.t option;
  worker : int;
}
