(** A full FLO deployment: n nodes × ω workers over one simulated
    network substrate. Worker w of every node forms one FireLedger
    instance-group with its own network message space; all ω groups
    share each node's NIC and CPU — the resource couplings behind the
    paper's ω sweeps. *)

open Fl_sim
open Fl_net

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  nics : Nic.t array;
  cpus : Cpu.t array;
  nets : Fl_fireledger.Msg.t Net.t array;  (** per worker *)
  nodes : Node.t array;
  workers : Fl_fireledger.Instance.t array array;  (** [node].(worker) *)
  crashed : (int, unit) Hashtbl.t;
}

val create :
  ?seed:int ->
  ?latency:Latency.t ->
  ?cost:Fl_crypto.Cost_model.t ->
  ?cores:int ->
  ?bandwidth_bps:float ->
  ?behavior:(int -> Fl_fireledger.Instance.behavior) ->
  ?valid:(Fl_chain.Block.t -> bool) ->
  ?obs:Fl_obs.Obs.t ->
  ?keep_log:bool ->
  ?on_deliver:(node:int -> Node.delivery -> unit) ->
  ?persist:Fl_persist.Node.config ->
  config:Fl_fireledger.Config.t ->
  workers:int ->
  unit ->
  t
(** [persist] gives every (node, worker) instance a durability layer;
    the ω layers of one node share a single simulated disk, so WAL
    appends and fsyncs contend on the device exactly as the workers'
    network traffic contends on the shared NIC. *)

val start : t -> unit

val crash : t -> int -> unit
(** Crash a node: all its workers' traffic is dropped from now on. *)

val run : ?until:Time.t -> t -> unit

val delivery_agreement : t -> bool
(** Safety oracle: for every worker group, all non-crashed nodes agree
    on the definite prefix. *)
