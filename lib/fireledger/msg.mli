(** Wire messages of one FireLedger instance (worker). Channel keys
    demultiplex per-round, per-attempt protocol state; [era] counts
    completed recoveries so post-recovery rounds never collide with
    abandoned pre-recovery instances of the same round number. *)

type t =
  | Body of { body_hash : string; txs : Fl_chain.Tx.t array; ttl : int }
      (** background block-body dissemination (§6.1.1); [ttl] > 0
          asks receivers to keep gossiping the body. [body_hash] must
          be [Block.body_hash txs]: the decoder rejects a frame whose
          hash does not commit to its txs *)
  | Push of { proposal : Types.proposal }
      (** WRB direct broadcast (Algorithm 1, line 3) *)
  | Ob of {
      era : int;
      round : int;
      attempt : int;
      m : ob_payload Fl_consensus.Obbc.msg;
    }
      (** OBBC traffic of one WRB delivery attempt *)
  | Req of { round : int }
      (** WRB pull phase (Algorithm 1, line 22) *)
  | Reply of {
      round : int;
      proposal : Types.proposal;
      txs : Fl_chain.Tx.t array;
    }
  | Rb of Types.proof Fl_broadcast.Bracha.msg
      (** panic proofs (Algorithm 2, lines b7/b12) *)
  | Ab of Types.version Fl_consensus.Pbft.msg
      (** recovery versions (Algorithm 3) *)
  | Evd of Types.evidence Fl_broadcast.Bracha.msg
      (** fork-accountability evidence dissemination *)
  | Snap_req of { from_chunk : int }
      (** joiner asks a donor for state transfer, resuming at the
          first chunk it does not yet hold *)
  | Snap_chunk of {
      sid : int;
      seq : int;
      total : int;
      data : Fl_wire.Codec.Slice.t;
    }
      (** one chunk of an encoded {!Fl_persist.Snapshot}; [sid] is
          [definite_upto + 1] at build time (so 0 = "nothing durable
          yet", signalled with [total = 0]) — a joiner resumes only
          chunks of a matching [sid]. [data] is a borrowed view: on
          send, of the donor's cached snapshot encoding; on receive,
          of the delivered frame — the joiner copies what it keeps *)
  | Tx_handoff of { txs : Fl_chain.Tx.t array; fees : int array }
      (** a leaving node hands its pending mempool txs to a surviving
          member so admitted transactions are conserved *)

and ob_payload = Types.proposal
(** OBBC piggyback: the next round's proposal (§5.1). *)

val ob_key : era:int -> round:int -> attempt:int -> string
(** The channel key of one OBBC delivery attempt. *)

val key : t -> string
(** The channel a message is dispatched to. *)

val encode : t -> string
(** One sealed {!Fl_wire.Envelope} per message, one tag per
    constructor; [String.length (encode m)] is the exact byte count the
    network charges for [m]. *)

val decode : string -> t option
(** Total inverse of {!encode} (see {!Fl_wire.Msg_codec}). *)

val decode_sub : string -> pos:int -> len:int -> t option
(** Observationally [decode (String.sub s pos len)] without the copy —
    the receive path decoding one frame out of a batched buffer. Any
    [Slice.t] payload in the result borrows [s]. *)
