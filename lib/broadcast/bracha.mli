(** Bracha reliable broadcast (Information & Computation 1987) — the
    paper's RB primitive, used to disseminate panic proofs (Algorithm
    2, lines b7/b12).

    Guarantees with f < n/3 Byzantine nodes: RB-Validity (delivered
    messages from correct senders were sent), RB-Agreement (if any
    correct node delivers m, all do) and RB-Termination for correct
    senders — even when the origin equivocates, correct nodes agree on
    a single payload or none.

    One service instance per node multiplexes any number of broadcast
    instances, identified by (origin, tag). ECHO/READY carry the full
    payload (panic proofs are small), so delivery needs no pull
    phase. *)

open Fl_sim
open Fl_net

type 'a msg =
  | Send of { origin : int; tag : int; payload : 'a }
  | Echo of { origin : int; tag : int; payload : 'a }
  | Ready of { origin : int; tag : int; payload : 'a }
  | Stop  (** local control; never on wire *)
(** Exposed so tests and Byzantine adversaries can inject raw protocol
    traffic (e.g. an equivocating SEND). *)

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

type 'a t

val create :
  Engine.t ->
  recorder:Fl_metrics.Recorder.t ->
  channel:'a msg Channel.t ->
  payload_digest:('a -> string) ->
  deliver:(origin:int -> tag:int -> 'a -> unit) ->
  'a t
(** Start this node's RB service. [deliver] fires exactly once per
    (origin, tag) instance. The first time an instance accumulates two
    distinct payload digests — proof the origin equivocated at the RB
    layer — it is counted under the ["rb_payload_conflicts"] recorder
    key. *)

val broadcast : 'a t -> tag:int -> 'a -> unit
(** RB-broadcast a payload under a fresh tag (tags must not be reused
    by the same origin). *)

val stop : 'a t -> unit

val halt : 'a t -> unit
(** Synchronous teardown (no self-send): for cold restarts where the
    inbox was replaced and a [Stop] message would never arrive. *)
