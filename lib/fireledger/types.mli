(** FireLedger wire-level data: signed headers, proposals, panic
    proofs and recovery versions. *)

open Fl_chain

type signed_header = { header : Header.t; signature : string }
(** A header and its proposer's signature over [Header.encode]. *)

val sign_header :
  Fl_crypto.Signature.registry -> signer:int -> Header.t -> signed_header

val signed_header_valid :
  Fl_crypto.Signature.registry -> signed_header -> bool
(** The signature is by [header.proposer] over the canonical header
    encoding. *)

val write_signed_header :
  Fl_wire.Codec.Writer.t -> signed_header -> unit
(** In-body codec. The header travels as the exact byte string that
    was signed, so verification never re-encodes. *)

val read_signed_header : Fl_wire.Codec.Reader.t -> signed_header
(** Inverse of {!write_signed_header}; raises
    {!Fl_wire.Codec.Malformed} / {!Fl_wire.Codec.Reader.Underflow} on
    bad input. *)

val encode_signed_header : signed_header -> string
(** Canonical bytes — this string is WRB's transferable evidence(1). *)

val decode_signed_header : string -> signed_header option

val decode_signed_header_slice :
  Fl_wire.Codec.Slice.t -> signed_header option
(** Decode straight out of a borrowed view of a received frame — no
    copy of the blob. The result borrows nothing from the slice. *)

type proposal = { sh : signed_header; body : Tx.t array option }
(** What WRB carries for a round: the signed header, plus the body
    inline when block/header separation is disabled (ablation). *)

val write_proposal : Fl_wire.Codec.Writer.t -> proposal -> unit
val read_proposal : Fl_wire.Codec.Reader.t -> proposal

(** {2 Derived fields}

    Proofs, evidence and versions are immutable wire values that many
    receivers share once decoded ({!Fl_net.Net.Frame}). Facts derived
    from their content — digests, block hashes, the per-block soundness
    verdict — are fields of the value: computed once, by the one
    constructor or the decoder, never written to the wire, and a
    function of the content only. The types are [private], so no value
    can carry a stale digest. Every simulated [Cpu.charge] for checking
    them stays with each receiver. *)

type proof = private {
  later : signed_header;
  earlier : signed_header;
  digest : string;  (** derived: {!proof_digest} *)
}
(** Evidence of chain inconsistency: two properly signed headers at
    consecutive rounds where [later.prev_hash] does not extend
    [earlier] (Algorithm 2, line b6). Anyone can check it; its
    existence convicts one of the two proposers. *)

val make_proof : later:signed_header -> earlier:signed_header -> proof

val write_proof : Fl_wire.Codec.Writer.t -> proof -> unit
val read_proof : Fl_wire.Codec.Reader.t -> proof

val proof_round : proof -> int
(** The disputed round (the later header's round). *)

val proof_valid : Fl_crypto.Signature.registry -> proof -> bool

val proof_digest : proof -> string
(** SHA-256 over both signed headers' canonical encodings. *)

type evidence = private {
  accused : int;
  first : signed_header;  (** lower header hash of the pair *)
  second : signed_header;
  digest : string;  (** derived: {!evidence_digest} *)
}
(** Fork-accountability evidence: two valid headers signed by
    [accused] for the same (round, prev_hash) slot with different
    content. An honest proposer signs at most one header per slot
    (re-proposals always change the parent, and the instance re-serves
    its archived header for a repeated slot), so — unlike the panic
    {!proof}, which convicts only one of two nodes — this attributes
    misbehavior to exactly one node, checkable by anyone holding the
    key registry. *)

val make_evidence :
  accused:int -> signed_header -> signed_header -> evidence
(** Canonical constructor: orders the pair by header hash so one
    conflict has one digest regardless of discovery order. *)

val evidence_valid : Fl_crypto.Signature.registry -> evidence -> bool

val write_evidence : Fl_wire.Codec.Writer.t -> evidence -> unit

val read_evidence : Fl_wire.Codec.Reader.t -> evidence
(** Keeps the wire order of the pair, canonical or not. *)

val encode_evidence : evidence -> Fl_wire.Sparse.t
(** Detached, enveloped frame (version/tag/CRC header) — the form
    evidence is stored or relayed in outside a protocol message. *)

val decode_evidence : Fl_wire.Sparse.t -> evidence option

val evidence_digest : evidence -> string
(** SHA-256 of {!encode_evidence}. *)

type version = private {
  recovery_round : int;
  origin : int;
  blocks : (Block.t * string) list;  (** oldest first, each signed *)
  hashes : string list;  (** derived: [Block.hash] of each block *)
  digest : string;  (** derived: {!version_digest} *)
  mutable soundness : soundness;
      (** memo of the per-block check in {!validate_version}; not
          content, so compare versions before validating them *)
}
(** A node's candidate suffix for the recovery procedure (Algorithm 3):
    its blocks from round [recovery_round − (f+1)] to its tip. An
    empty [blocks] is the "empty version" of a lagging node. *)

and soundness
(** Whether every block's body matches its commitment and carries its
    proposer's signature, and under which key registry that was
    found. *)

val make_version :
  recovery_round:int -> origin:int -> (Block.t * string) list -> version

val version_tip : version -> int
(** Round of the version's last block; −1 when empty. *)

val write_version : Fl_wire.Codec.Writer.t -> version -> unit
(** Blocks ride the {!Fl_chain.Serial} block codec (wire-true padded
    transaction frames), each followed by its proposer signature. *)

val read_version : Fl_wire.Codec.Reader.t -> version

val version_digest : version -> string
(** SHA-256 over the recovery round, the origin and each block's hash
    and signature. *)

type version_check = Adoptable | Unanchored | Invalid

val validate_version :
  Fl_crypto.Signature.registry ->
  f:int ->
  n:int ->
  anchor:(int -> string option) ->
  version ->
  version_check
(** Check a received version against Lemma 5.3.6: every block signed
    by its in-range proposer, bodies matching their commitments,
    hash-linked internally, any f+1 consecutive blocks from f+1
    distinct proposers, and the first block anchored to our agreed
    prefix ([anchor r] returns the hash of our round-r block, or the
    genesis hash for r = −1). [Unanchored] means internally consistent
    but starting beyond our chain (we lag too far to verify or adopt
    it). Empty versions are [Adoptable].

    Body commitments and signatures are checked once per value and
    registry; the other checks depend on [f], [n] and [anchor] and run
    on every call. *)
