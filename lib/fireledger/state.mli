(** The state of one FireLedger instance, shared by the phase modules
    ({!Accountability}, {!Reconfig}, {!Ledger}, {!Wrb}, {!Recovery},
    {!Sync}) that {!Instance} composes, plus the environment helpers
    they all use. This is the only module that exposes the record. *)

open Fl_sim
open Fl_chain
open Fl_consensus

type behavior = Honest | Equivocator

type block_times = { a : Time.t; b : Time.t; c : Time.t; d : Time.t }

type output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
  on_epoch : Epoch.t -> unit;
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
}

val null_output : output

type pending_times = { pt_a : Time.t; pt_b : Time.t; pt_c : Time.t }
(** Events A–C of an appended block, kept until it turns definite. *)

type t = {
  env : Env.t;
  config : Config.t;
  behavior : behavior;
  valid : Block.t -> bool;
  output : output;
  store : Store.t;
  mempool : Mempool.t;
  timer : Timer.t;
  detector : Detector.t;
  rotation : Rotation.t;
  (* dissemination state (WRB) *)
  bodies : (string, Tx.t array) Hashtbl.t;
  body_arrival : (string, Time.t) Hashtbl.t;
  stash : (int, Types.proposal * Time.t) Hashtbl.t;  (** per proposer *)
  fetched : (int, Types.signed_header * Tx.t array) Hashtbl.t;
      (** pull replies keyed by round — feeds the catch-up sync *)
  signed_headers : (int, Types.signed_header) Hashtbl.t;  (** per round *)
  my_signed : (int * string, Types.signed_header * Tx.t array) Hashtbl.t;
      (** every header this node ever signed, keyed by
          (round, prev_hash): the no-double-sign discipline that makes
          same-slot conflicts provable misbehavior *)
  evidence_log : (string, Types.evidence) Hashtbl.t;  (** by digest *)
  mutable pulse : unit Ivar.t;  (** wakes WRB waits on any arrival *)
  prepared : (Tx.t array * string * Time.t) Queue.t;
      (** bodies built (and shipped) ahead of our proposing turns; the
          head is the next block we will propose *)
  own_in_flight : (string, unit) Hashtbl.t;  (** flow control (§7.2) *)
  pool_txs : (string, (Tx.t * int) array) Hashtbl.t;
      (** body_hash -> the client (mempool-drained) transactions in a
          body we built, with their fees, kept until the block is
          definite: a rescind of one of our blocks re-queues exactly
          these so an admitted transaction never vanishes silently *)
  (* round state *)
  mutable round : int;
  mutable attempt : int;
  mutable era : int;  (** completed recoveries *)
  mutable proposer : int;
  mutable full_mode : bool;
  mutable definite_upto : int;
  open_obbcs : (int * int * int, Msg.ob_payload Obbc.t) Hashtbl.t;
  times : (int, pending_times) Hashtbl.t;
  (* panic and recovery *)
  mutable abort : unit Ivar.t;
  mutable pending_proofs : Types.proof list;
  handled_recoveries : (int, unit) Hashtbl.t;
  version_boxes : (int, Types.version Mailbox.t) Hashtbl.t;
  mutable rb : Types.proof Fl_broadcast.Bracha.t option;
  mutable ab : Types.version Pbft.t option;
  mutable evd : Types.evidence Fl_broadcast.Bracha.t option;
  mutable rb_tag : int;
  mutable evd_tag : int;
  (* workload *)
  mutable next_tx_id : int;
  halves : int list * int list;  (** equivocation split *)
  mutable stopped : bool;
  (* membership epochs *)
  genesis_epoch : Epoch.t;
  mutable epochs : Epoch.t list;  (** newest (highest activation) first *)
  mutable active_epoch : Epoch.t;  (** the epoch governing [round] *)
  mutable was_member : bool;  (** ever inside the active membership *)
  mutable handoff_done : bool;  (** leaver's one-shot mempool handoff *)
  mutable reconfig_fibers : bool;  (** snap/handoff fibers spawned *)
  mutable wedged : bool;
      (** watchdog verdict: parked in a round whose consensus the
          cluster already completed — pull the block instead *)
  mutable snap_cache : (int * string) option;
      (** (definite_upto + 1, encoded snapshot) served to joiners *)
  (* durability *)
  persist : Fl_persist.Node.t option;
  mutable boot_delay : Time.t;
      (** time the boot path spends reading the media back (disk scan +
          per-block hashing); charged before the main loop starts *)
}

val n_of : t -> int
val f_of : t -> int

(** {2 Membership epochs} *)

val epoch_at : t -> int -> Epoch.t
(** The epoch governing a round (genesis before any activation). *)

val membership_known : t -> round:int -> bool
(** Is the local epoch schedule provably complete for [round]? *)

val is_member_at : t -> round:int -> int -> bool

val epoch_quorum_params : t -> Epoch.t -> int * int
(** [(n, f)] an epoch's quorums count against. *)

(** {2 Environment shorthands} *)

val me : t -> int
val engine : t -> Engine.t
val recorder : t -> Fl_metrics.Recorder.t
val now : t -> Time.t
val incr_c : t -> string -> unit

val obs_span :
  t ->
  name:string ->
  ?round:int ->
  ?args:(string * string) list ->
  t_begin:Time.t ->
  t_end:Time.t ->
  unit ->
  unit

val obs_instant :
  t -> name:string -> ?round:int -> ?args:(string * string) list -> unit -> unit

val charge_hash : t -> bytes:int -> unit
(** Charge the node's CPU for hashing [bytes] (suspends the fiber). *)

val charge_sign : t -> unit
val charge_verify : t -> unit
val body_bytes : Tx.t array -> int
val send : t -> dst:int -> Msg.t -> unit
val bcast : t -> Msg.t -> unit
val multicast : t -> dsts:int list -> Msg.t -> unit

(** {2 Arrivals and chain lookups} *)

val pulse_fill : t -> unit
(** Wake every wait parked on the arrival pulse. *)

val find_body : t -> string -> Tx.t array option
(** The body committed to by a hash, if held (the empty body always). *)

val recent_proposers : t -> int -> int list
(** Last [count] proposers of the stored chain, oldest first. *)
