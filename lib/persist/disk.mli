(** A per-node simulated storage device, the durable twin of
    {!Fl_net.Nic}: an analytic single-queue model with a per-operation
    setup latency and a bandwidth term. [write] is asynchronous (data
    lands in the device cache and the busy cursor advances); [fsync]
    blocks the calling fiber until everything written so far is
    stable. Faults: a stall window delays fsync completion, and
    [lose] models full media loss. *)

type profile
(** Device latencies and bandwidth. *)

val nvme : profile
val hdd : profile

val profile_of_string : string -> profile option
(** ["nvme"], ["ssd"] or ["hdd"]. *)

type t

val create :
  Fl_sim.Engine.t -> ?obs:Fl_obs.Obs.t -> ?node:int -> profile:profile ->
  unit -> t
(** [node] attributes the device's spans. *)

val write : t -> bytes:int -> Fl_sim.Time.t
(** Enqueue a write; returns its device-cache completion time. No
    engine event, no blocking. *)

val fsync : ?name:string -> t -> unit
(** Block the calling fiber until every write issued so far is
    durable (past any stall window); records a [disk] span named
    [name] (default ["fsync"]). *)

val read_delay : t -> bytes:int -> Fl_sim.Time.t
(** Analytic cost of reading [bytes] sequentially — the boot scan of a
    restarting node. *)

val set_stall : t -> until:Fl_sim.Time.t -> unit
(** No fsync completes before [until]. *)

val lose : t -> unit
val lost : t -> bool

val bytes_written : t -> int
val fsyncs : t -> int
