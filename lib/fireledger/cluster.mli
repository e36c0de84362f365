(** A standalone FireLedger deployment: n nodes, one instance each,
    a shared simulated network, per-node NICs and CPUs. This is the
    single-worker building block; {!Fl_flo} stacks ω of these per node.

    Crash faults are injected at the network (a crashed node's traffic
    is silently dropped in both directions — exactly what a peer can
    observe of a crash); Byzantine behaviour is selected per node. *)

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
      (** entries are replaced in place by cold restarts — re-read
          after a restart rather than caching an [Instance.t] *)
  crashed : (int, unit) Hashtbl.t;
  persist : Fl_persist.Node.t option array;
      (** per-node durability layers ([None] when persistence is off);
          they outlive instance rebuilds *)
  incarnation : int array;  (** cold restarts per node *)
  rebuild : int -> int -> Instance.t;
  mutable on_restart : int -> unit;
}

val create :
  ?seed:int ->
  ?latency:Latency.t ->
  ?bandwidth_of:(int -> float) ->
  ?behavior:(int -> Instance.behavior) ->
  ?obs:Fl_obs.Obs.t ->
  ?config_of:(int -> Config.t -> Config.t) ->
  ?output:(int -> Instance.output) ->
  ?halves_of:(int -> (int list * int list) option) ->
  ?persist:Fl_persist.Node.config ->
  ?persist_app:(int -> Fl_persist.Recovery.app option) ->
  ?members:int list ->
  config:Config.t ->
  unit ->
  t
(** Build (but do not start) a cluster. [behavior]/[output] map a node
    id to its behaviour/event sink. Every node has a 4-core CPU with
    the default crypto cost model; [bandwidth_of] gives a node's NIC
    rate (default 10 Gb/s everywhere). [config_of] applies a
    per-node config tweak (e.g. clock-skewed timer parameters for the
    schedule explorer) — it must preserve [n] and [f]. [halves_of]
    pins node [i]'s equivocation audience split ([None] keeps the
    seeded random split) — the model checker branches over it. [obs] installs
    a span sink across every layer (engine, CPUs, net, consensus,
    instances) — observe-only, so metrics and ledgers are unchanged.
    [persist] gives every node a durability layer (WAL + snapshots on
    a simulated disk); [persist_app] optionally supplies the per-node
    application hooks (e.g. the KV state machine) the layer snapshots
    and replays. Without [persist] the run schedules zero disk events
    and traces are byte-identical to a persistence-less build.
    [members] restricts the genesis membership epoch to a subset of
    the [n]-node transport universe (default: everyone): excluded
    nodes boot as joiners that state-transfer and catch up, voting
    only once a decided reconfiguration admits them. *)

val start : t -> unit
(** Start every instance's fibers. *)

val set_on_restart : t -> (int -> unit) -> unit
(** Hook fired after a cold restart replaced [instances.(i)] — the
    schedule explorer uses it to re-point its oracles at the fresh
    instance's store. *)

val persist_node : t -> int -> Fl_persist.Node.t option
(** Node [i]'s durability layer. *)

val crash : ?torn:bool -> t -> int -> unit
(** Drop all traffic from/to a node from now on. If the node has a
    durability layer, the crash is a power failure: its media freezes
    at the durable watermark — with [torn] (default false) plus a
    partial fragment of the first in-flight frame, the classic torn
    tail write that replay must detect and discard. *)

val restart : t -> int -> unit
(** Undo {!crash} with a cold restart: the crash lost all volatile
    state, so the node is reconnected, the old instance torn down, its
    inbox abandoned, and a fresh instance built in place. It recovers
    chain, definite watermark and era from its durability layer when
    one is attached, and otherwise starts from genesis and relies on
    the catch-up sync to pull the missing prefix from peers. *)

val run : ?until:Time.t -> t -> unit

type split =
  | Diverged  (** both stores hold the round, with different blocks *)
  | Missing  (** one store lacks a round its node calls definite *)

val disagreements :
  crashed:(int, unit) Hashtbl.t ->
  Instance.t array ->
  (int * int * int * split) list
(** Over the nodes not in [crashed] ([instances.(i)] runs on node
    [i]), every pair [(i, j)], [i < j], whose instances do not agree
    on all blocks both consider definite, as [(i, j, round, split)]
    with the first round at which they part. Pairs come in order of
    [i], then [j]. *)

val agreement : crashed:(int, unit) Hashtbl.t -> Instance.t array -> bool
(** [disagreements] is empty. *)

val definite_prefix_agreement : t -> bool
(** Safety oracle for tests: over non-crashed nodes, every pair agrees
    on all blocks both consider definite. *)
