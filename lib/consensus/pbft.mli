(** PBFT-style state-machine replication.

    A from-scratch implementation of the Castro–Liskov three-phase
    protocol with batching and view changes, standing in for BFT-SMaRt
    (whose core is PBFT-like): it is both the paper's recovery-layer
    atomic broadcast (§6.1.2: "Atomic Broadcast is natively implemented
    on top of BFT-SMaRt") and the Figure 17 comparison baseline.

    Normal case, per sequence number: the view's leader broadcasts
    PRE-PREPARE carrying the payload batch; replicas broadcast PREPARE
    on its digest; a replica with 2f+1 PREPAREs broadcasts COMMIT; a
    replica with 2f+1 COMMITs executes the batch in sequence order and
    hands each payload to [deliver]. O(n²) messages per decision —
    the communication complexity the paper contrasts FireLedger
    against.

    View change: a replica whose oldest pending request exceeds the
    (per-view doubling) timeout broadcasts VIEW-CHANGE with its
    prepared-but-unexecuted entries; joins on f+1 matching views; the
    new leader assembles 2f+1 VIEW-CHANGEs into a NEW-VIEW whose
    re-proposals every replica *recomputes and verifies* from the
    embedded VIEW-CHANGE set before adopting.

    Simplifications vs production PBFT, documented in DESIGN.md: no
    checkpoint/garbage collection (simulation runs are bounded), no
    proposal deduplication after view change (consumers are
    idempotent), MAC-style authentication (no per-message asymmetric
    signatures — BFT-SMaRt's default). *)

open Fl_sim
open Fl_net

type 'a msg =
  | Submit of 'a
  | Pre_prepare of { view : int; seq : int; batch : 'a list }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | View_change of {
      new_view : int;
      last_exec : int;
      prepared : (int * int * string * 'a list) list;
    }
  | New_view of {
      view : int;
      vcs : (int * (int * (int * int * string * 'a list) list)) list;
    }
  | Stop  (** local control; never on wire *)
(** Exposed so tests and Byzantine adversaries can inject raw protocol
    traffic (e.g. an equivocating PRE-PREPARE). *)

val write_msg :
  (Fl_wire.Codec.Writer.t -> 'a -> unit) ->
  Fl_wire.Codec.Writer.t ->
  'a msg ->
  unit
(** In-body codec, parameterized over the payload codec; the carrier
    protocol owns the envelope. *)

val read_msg :
  (Fl_wire.Codec.Reader.t -> 'a) -> Fl_wire.Codec.Reader.t -> 'a msg
(** Inverse of {!write_msg}; raises {!Fl_wire.Codec.Malformed} /
    {!Fl_wire.Codec.Reader.Underflow} on bad input. *)

type 'a config = {
  payload_digest : 'a -> string;
  max_batch : int;              (** payloads per PRE-PREPARE *)
  window : int;                 (** in-flight sequence numbers *)
  base_timeout : Time.t;        (** view-change timeout (doubles) *)
  vote_cpu : Time.t;            (** CPU charged per vote processed *)
  payload_cpu : 'a -> Time.t;   (** CPU to validate one payload *)
}

val default_config : payload_digest:('a -> string) -> 'a config
(** max_batch 1000, window 8, base_timeout 300 ms, 2 µs votes, free
    payload validation. *)

type 'a t

val create :
  Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  channel:'a msg Channel.t ->
  cpu:Cpu.t ->
  config:'a config ->
  deliver:(seq:int -> 'a -> unit) ->
  'a t
(** Start this node's replica. [deliver] is called for every payload,
    in the totally-ordered execution order (identical at all correct
    replicas). *)

val submit : 'a t -> 'a -> unit
(** Hand a payload to the replication service (forwarded to the
    current leader; re-forwarded after view changes). *)

val stop : 'a t -> unit
(** Tear the replica down (end of experiment). *)

val halt : 'a t -> unit
(** Synchronous teardown: set the stop flag directly instead of
    self-sending [Stop]. Needed when the node's inbox has already been
    replaced (cold restart) so a message-based stop would never
    arrive. Fibers exit on their next wake-up. *)

val view : 'a t -> int
