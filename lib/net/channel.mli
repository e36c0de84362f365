(** What a protocol instance sees of the network.

    Sub-protocols (BBC, OBBC, WRB, recovery, PBFT…) are written
    against this record instead of the raw {!Net} so that (i) each
    instance gets its own demultiplexed message stream (a {!Hub}
    channel) and (ii) the node layer can wrap [bcast]/[send] to embed
    the sub-protocol's messages in the node's wire type and encode
    them once through the node's message codec — the bytes that cross
    the wire, and the NIC charge, are exactly that encoding.
    [n]/[f] carry the system-model parameters every BFT protocol
    needs. *)

open Fl_sim

type 'a t = {
  self : int;
  n : int;
  f : int;
  bcast : 'a -> unit;  (** encode once, send to all, including self *)
  send : dst:int -> 'a -> unit;
  recv : unit -> int * 'a;  (** blocking; (src, msg) *)
  recv_timeout : timeout:Time.t -> (int * 'a) option;
  close : unit -> unit;  (** release the underlying hub channel *)
}

val of_hub :
  ?n:int ->
  ?accept:(int -> bool) ->
  'w Hub.t ->
  key:string ->
  net:'w Net.t ->
  self:int ->
  f:int ->
  encode:('w -> Fl_wire.Sparse.t) ->
  inj:('m -> 'w) ->
  prj:('w -> 'm) ->
  'm t
(** Standard wiring: channel [key] of a node's hub, embedding protocol
    messages ['m] into the node wire type ['w] and encoding through
    the node's codec. [prj] may assume it only sees messages routed to
    [key] (it should raise on others — that would be a routing bug).

    [?n] overrides the quorum denominator (default: the transport
    universe [Net.n]) — used when the active membership epoch is a
    subset of the universe. [?accept src] filters the receive side:
    frames from rejected sources are dropped before [prj] (gen-guard —
    a node outside the epoch governing this channel's round can never
    have a vote counted). Rejected frames under [recv_timeout] re-arm
    the timeout. *)
