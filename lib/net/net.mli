(** The simulated message-passing network.

    A ['m t] connects [n] nodes in a clique with asynchronous links,
    exactly the paper's §3.1 model, and carries messages of type ['m].
    What crosses a link is an actual framed byte string — the sender
    encodes once through its message codec ({!Fl_wire.Msg_codec}) and
    the NIC is charged exactly its length. There is no separate size
    argument to drift from the message content.

    Each [send]/[broadcast]/[multicast] call wraps its bytes in one
    {!Frame}, and every destination of that call receives the same
    frame. Decoding is a property of the frame, not of the receiver:
    the codec's total [decode] (given at {!create}) runs once, at the
    first receiver that asks for the message, and every other
    receiver gets the same decoded value. Each distinct frame is
    therefore CRC-checked and parsed exactly once; a frame corrupted
    on one link is a fresh frame with its own decode. Decoded
    messages must be immutable for this sharing to be invisible.

    Delivery time of a frame is

    [tx serialisation (sender NIC FIFO) + propagation latency (sampled
    from the latency model) + rx serialisation (receiver NIC FIFO)].

    NICs are shared across all [Net.t] instances that reference them,
    so the ω FireLedger workers of one FLO node contend for the same
    link — a first-order effect in the paper's ω sweeps.

    Fault injection: [set_filter] silently discards frames (used to
    emulate crashes, partitions and omission periods); [set_loss]
    drops probabilistically; [set_corrupt] flips a bit or truncates
    the frame on the wire, which a correct receiver must detect
    (envelope CRC) and drop. Byzantine equivocation is expressed by
    the sender simply calling [send] with different encodings to
    different destinations. *)

open Fl_sim

(** What one transmission delivers: the encoded bytes plus their
    once-only decode. *)
module Frame : sig
  type 'm t

  val bytes : 'm t -> string
  (** The bytes on the wire (after any byte fault on this link). *)

  val msg : 'm t -> 'm option
  (** The codec's decode of {!bytes}: [None] for a malformed frame.
      The first call on a frame runs the decode; later calls, from any
      receiver, return the same value without decoding again. *)
end

type 'm t

val create :
  Engine.t ->
  Rng.t ->
  nics:Nic.t array ->
  latency:Latency.t ->
  decode:(string -> 'm option) ->
  'm t
(** One network instance; [n] is the length of [nics]. [decode] is the
    message codec's total decode, run once per frame. *)

val n : 'm t -> int

val inbox : 'm t -> int -> (int * 'm Frame.t) Mailbox.t
(** Node [i]'s inbox; frames arrive as [(src, frame)]. A node's
    {!Hub} dispatcher reads the frame's shared decode. *)

val reset_inbox : 'm t -> int -> unit
(** Replace node [i]'s inbox with a fresh, empty mailbox. Fibers
    blocked on the old mailbox stay parked forever — this is how a
    cold restart abandons the previous incarnation's dispatcher:
    queued pre-crash frames vanish with the old mailbox and new
    traffic flows to the rebuilt node's hub. *)

val send : 'm t -> src:int -> dst:int -> string -> unit
(** Transmit an encoded message as one frame; the NICs are charged its
    exact byte length. Self-sends skip the NIC and incur only loopback
    latency. *)

val broadcast : ?include_self:bool -> 'm t -> src:int -> string -> unit
(** Send to every node (clique overlay: n−1 NIC serialisations, one
    shared encoding, one shared frame and so one decode);
    [include_self] (default true) also delivers locally. *)

val multicast : 'm t -> src:int -> dsts:int list -> string -> unit
(** Send to an explicit destination set, as one shared frame — the
    primitive Byzantine equivocators use to feed different halves
    different blocks. *)

val set_filter : 'm t -> (src:int -> dst:int -> bool) option -> unit
(** [Some f] drops any frame for which [f ~src ~dst] is false; [None]
    removes the filter. The filter is one of four independent fault
    layers — filter, partition, loss, corruption — that compose.
    Crash injection uses the filter; the schedule explorer drives the
    others. *)

val set_partition : 'm t -> int list list -> unit
(** Partition the network into the given groups: frames between
    different groups are silently dropped. Nodes not listed in any
    group form one implicit extra group together, so
    [set_partition net [[0;1]]] on a 4-node net yields {0,1} vs
    {2,3}. Self-delivery always works. Replaces any previous
    partition. *)

val heal : 'm t -> unit
(** Remove the partition (the filter, loss and corruption layers
    persist). *)

val set_loss : 'm t -> node:int -> float -> unit
(** Drop each of [node]'s outbound wire frames with the given
    probability (0 clears the entry — the window-close control).
    Draws come from a dedicated RNG stream split off the net's seed,
    so enabling loss does not perturb latency sampling for frames
    that survive. Self-delivery is exempt. *)

val set_corrupt : 'm t -> node:int -> float -> unit
(** Corrupt each of [node]'s outbound wire frames with the given
    probability (0 clears the entry): a fault either flips one random
    bit or truncates the frame at a random boundary, on a copy that
    travels as a fresh frame with its own decode — the sender's other
    links still carry the intact frame. Draws come from a dedicated
    ["net-corrupt"] RNG stream consumed only while a window is open,
    so corruption-free schedules are byte-identical to runs without
    the feature. Self-delivery is exempt. *)

val messages_delivered : 'm t -> int
val messages_dropped : 'm t -> int

val messages_corrupted : 'm t -> int
(** Frames mutated by {!set_corrupt} windows (they are still
    delivered; the receiving hub drops them when their decode
    fails). *)

val link_bytes : 'm t -> src:int -> dst:int -> int
(** Encoded bytes this net put on the [src → dst] link (after any
    truncating fault; drops excluded). Self-links count loopback
    traffic. *)

val bytes_out : 'm t -> node:int -> int
(** Sum of {!link_bytes} over all destinations of [node]. *)

val set_obs : ?worker:int -> 'm t -> Fl_obs.Obs.t option -> unit
(** Install (or remove, with [None]) an observability sink. With a
    sink, every wire transmission emits a ["nic_tx"] serialisation
    span and a ["link"] tx→rx span on the sender's track, plus a
    ["nic_tx_backlog"] gauge sampled just before enqueueing; drops
    emit ["drop"] instants, byte faults emit ["corrupt"] instants,
    and [set_partition]/[heal] emit cluster instants. [worker]
    (default [-1]) tags the emitting FLO worker when several [Net.t]
    share the node's NICs. Observe-only: the delivery schedule is
    unchanged (see {!Fl_obs.Obs}). *)
