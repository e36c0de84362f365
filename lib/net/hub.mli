(** Demultiplexing of a node's inbox into per-channel mailboxes.

    The network delivers frames ({!Net.Frame}); protocol fibers
    consume typed messages. A [Hub] runs a dispatcher fiber over the
    node's inbox that reads each frame's decoded message — decoded
    once per frame by the network's codec and shared with the other
    receivers of the same transmission — and routes it to the mailbox
    of its channel key (by round, by protocol phase, by instance),
    creating mailboxes on demand. A frame the codec rejects —
    truncated, bit-flipped, garbage — is dropped and counted by every
    hub that receives it, never crashing the dispatcher nor reaching
    a protocol fiber. Fibers block on [box]/[recv_timeout] for the
    channels they care about; messages for future rounds wait in their
    channel until the protocol catches up. [remove] discards finished
    channels so memory stays bounded over long runs. *)

open Fl_sim

type 'm t

val create :
  Engine.t ->
  inbox:(int * 'm Net.Frame.t) Mailbox.t ->
  ?on_malformed:(src:int -> bytes:int -> unit) ->
  key:('m -> string) ->
  unit ->
  'm t
(** Spawns the dispatcher fiber immediately. [on_malformed] fires for
    every rejected frame (after the internal counter) — the cluster
    layer hooks metrics and obs instants here. *)

val box : 'm t -> string -> (int * 'm) Mailbox.t
(** Mailbox of a channel (created on demand). *)

val remove : 'm t -> string -> unit
(** Drop a channel and any messages buffered in it. Late messages for
    a removed channel recreate it; callers remove channels only after
    the protocol can no longer consult them. *)

val channels : 'm t -> int
(** Live channel count — for leak tests. *)

val malformed : 'm t -> int
(** Frames this hub received whose decode failed, since creation. *)
