open Fl_chain
open Fl_wire

type signed_header = { header : Header.t; signature : string }

let sign_header registry ~signer header =
  { header;
    signature =
      Fl_crypto.Signature.sign registry ~signer (Header.encode header) }

let signed_header_valid registry sh =
  Fl_crypto.Signature.verify registry ~signer:sh.header.Header.proposer
    ~msg:(Header.encode sh.header) sh.signature

(* The signed header travels as [bytes(Header.encode h)] — the exact
   string that was signed. Signing, checking and writing all read the
   header's derived [enc] field, so none of them re-encodes. *)
let write_signed_header w sh =
  Codec.Writer.bytes w (Header.encode sh.header);
  Codec.Writer.bytes w sh.signature

let read_signed_header r =
  (* Bind sequentially: record-field evaluation order is unspecified
     and must not drive the read order. *)
  let henc = Codec.Reader.sub_bytes r in
  let header = Serial.decode_header henc in
  if not (Codec.Reader.at_end henc) then
    raise (Codec.Malformed "signed_header: trailing header bytes");
  let signature = Codec.Reader.bytes r in
  if String.length signature <> Fl_crypto.Signature.length then
    raise (Codec.Malformed "signed_header: signature length");
  { header; signature }

let encode_signed_header sh =
  let w = Codec.Writer.create ~capacity:160 () in
  write_signed_header w sh;
  Codec.Writer.contents w

let decode_signed_header_reader r =
  match
    let sh = read_signed_header r in
    if Codec.Reader.at_end r then Some sh else None
  with
  | result -> result
  | exception (Codec.Reader.Underflow | Codec.Malformed _) -> None

let decode_signed_header s =
  decode_signed_header_reader (Codec.Reader.of_string s)

(* Decode straight out of a borrowed view — the evidence-validation
   path, where the blob still lives in the received frame. The decoded
   header copies what it keeps (hashes, signature), so it does not
   borrow from the slice. *)
let decode_signed_header_slice s =
  decode_signed_header_reader (Codec.Reader.of_slice s)

type proposal = { sh : signed_header; body : Tx.t array option }

let write_proposal w p =
  write_signed_header w p.sh;
  match p.body with
  | None -> Codec.Writer.bool w false
  | Some txs ->
      Codec.Writer.bool w true;
      Serial.encode_txs w txs

let read_proposal r =
  let sh = read_signed_header r in
  let body =
    if Codec.Reader.bool r then Some (Serial.decode_txs r) else None
  in
  { sh; body }

type proof = { later : signed_header; earlier : signed_header; digest : string }

let make_proof ~later ~earlier =
  { later;
    earlier;
    digest =
      Fl_crypto.Sha256.digest
        (encode_signed_header later ^ encode_signed_header earlier) }

let write_proof w p =
  write_signed_header w p.later;
  write_signed_header w p.earlier

let read_proof r =
  let later = read_signed_header r in
  let earlier = read_signed_header r in
  make_proof ~later ~earlier

let proof_round p = p.later.header.Header.round

let proof_valid registry p =
  p.later.header.Header.round = p.earlier.header.Header.round + 1
  && signed_header_valid registry p.later
  && signed_header_valid registry p.earlier
  && not
       (String.equal p.later.header.Header.prev_hash
          (Header.hash p.earlier.header))

let proof_digest p = p.digest

type evidence = {
  accused : int;
  first : signed_header;
  second : signed_header;
  digest : string;
}

let write_evidence_fields w ~accused ~first ~second =
  Codec.Writer.varint w accused;
  write_signed_header w first;
  write_signed_header w second

let write_evidence w e =
  write_evidence_fields w ~accused:e.accused ~first:e.first ~second:e.second

(* Detached framing for evidence objects stored or relayed outside a
   protocol message — same envelope format as every other frame. *)
let evidence_tag = 0x45

(* The digest is over the detached frame, so it is sealed once here,
   when the value is built or decoded, and never again per receiver. *)
let evidence_of ~accused ~first ~second =
  let frame =
    Envelope.seal ~tag:evidence_tag (fun w ->
        write_evidence_fields w ~accused ~first ~second)
  in
  { accused; first; second;
    digest = Fl_crypto.Sha256.digest (Sparse.to_string frame) }

(* Canonical form: order the conflicting pair by header hash so the
   same conflict always digests identically no matter which side was
   seen first. *)
let make_evidence ~accused sha shb =
  if String.compare (Header.hash sha.header) (Header.hash shb.header) <= 0
  then evidence_of ~accused ~first:sha ~second:shb
  else evidence_of ~accused ~first:shb ~second:sha

(* Provable equivocation. An honest FireLedger proposer signs at most
   one header per (round, prev_hash) slot: re-proposals after a failed
   prediction or a recovery always sit on a different parent, and the
   instance re-serves its archived header when asked for the same slot
   twice. Two valid signatures by the same proposer over different
   headers for one slot therefore convict that proposer — unlike the
   panic {!proof}, which only convicts one of two nodes. *)
let evidence_valid registry e =
  let ha = e.first.header and hb = e.second.header in
  ha.Header.proposer = e.accused
  && hb.Header.proposer = e.accused
  && ha.Header.round = hb.Header.round
  && String.equal ha.Header.prev_hash hb.Header.prev_hash
  && not (Header.equal ha hb)
  && String.compare (Header.hash ha) (Header.hash hb) < 0
  && signed_header_valid registry e.first
  && signed_header_valid registry e.second

(* The decoder keeps the wire order: a pair that is not canonical must
   still reach [evidence_valid] and fail there. *)
let read_evidence r =
  let accused = Codec.Reader.varint r in
  let first = read_signed_header r in
  let second = read_signed_header r in
  evidence_of ~accused ~first ~second

let encode_evidence e = Envelope.seal ~tag:evidence_tag (fun w -> write_evidence w e)

let decode_evidence p =
  match
    let r = Envelope.open_expect ~tag:evidence_tag p in
    let e = read_evidence r in
    if Codec.Reader.at_end r then Some e else None
  with
  | result -> result
  | exception (Codec.Reader.Underflow | Codec.Malformed _) -> None

let evidence_digest e = e.digest

type version = {
  recovery_round : int;
  origin : int;
  blocks : (Block.t * string) list;
  hashes : string list;
  digest : string;
  mutable soundness : soundness;
}

and soundness =
  | Unchecked
  | Checked of { registry : Fl_crypto.Signature.registry; sound : bool }

let make_version ~recovery_round ~origin blocks =
  let hashes = List.map (fun (b, _) -> Block.hash b) blocks in
  let digest =
    Fl_crypto.Sha256.digest_with (fun ctx ->
        Fl_crypto.Sha256.feed_string ctx
          (Printf.sprintf "v:%d:%d" recovery_round origin);
        List.iter2
          (fun h (_, s) ->
            Fl_crypto.Sha256.feed_string ctx h;
            Fl_crypto.Sha256.feed_string ctx s)
          hashes blocks)
  in
  { recovery_round; origin; blocks; hashes; digest; soundness = Unchecked }

let version_tip v =
  match List.rev v.blocks with
  | [] -> -1
  | (b, _) :: _ -> b.Block.header.Header.round

let write_version w v =
  Codec.Writer.varint w v.recovery_round;
  Codec.Writer.varint w v.origin;
  Codec.Writer.varint w (List.length v.blocks);
  List.iter
    (fun (b, s) ->
      Serial.encode_block w b;
      Codec.Writer.bytes w s)
    v.blocks

let read_version r =
  let recovery_round = Codec.Reader.varint r in
  let origin = Codec.Reader.varint r in
  let n = Codec.Reader.seq_len r in
  let blocks =
    List.init n (fun _ ->
        let b = Serial.read_block r in
        let s = Codec.Reader.bytes r in
        (b, s))
  in
  make_version ~recovery_round ~origin blocks

let version_digest v = v.digest

type version_check = Adoptable | Unanchored | Invalid

(* Any window of f+1 consecutive blocks must show f+1 distinct
   proposers (Lemma 5.3.2). *)
let rotation_ok ~f blocks =
  let proposers =
    List.map (fun (b, _) -> b.Block.header.Header.proposer) blocks
  in
  let arr = Array.of_list proposers in
  let len = Array.length arr in
  let window = f + 1 in
  let ok = ref true in
  for start = 0 to len - window do
    let seen = Hashtbl.create window in
    for j = start to start + window - 1 do
      Hashtbl.replace seen arr.(j) ()
    done;
    if Hashtbl.length seen < window then ok := false
  done;
  !ok

(* Every block's body matches its commitment and carries its
   proposer's signature. This depends only on the version's content
   and the registry, so the verdict is kept on the value: the
   receivers of one decoded frame share it, and a different registry
   recomputes it. *)
let blocks_sound registry v =
  match v.soundness with
  | Checked c when c.registry == registry -> c.sound
  | Unchecked | Checked _ ->
      let sound =
        List.for_all
          (fun (b, s) ->
            let h = b.Block.header in
            Block.body_matches b
            && Fl_crypto.Signature.verify registry ~signer:h.Header.proposer
                 ~msg:(Header.encode h) s)
          v.blocks
      in
      v.soundness <- Checked { registry; sound };
      sound

let validate_version registry ~f ~n ~anchor v =
  match v.blocks with
  | [] -> Adoptable
  | (first, _) :: _ ->
      let expected_start = max 0 (v.recovery_round - (f + 1)) in
      (* Consecutive rounds from [expected_start], by in-range
         proposers. *)
      let rec shaped prev_round = function
        | [] -> true
        | (b, _) :: rest ->
            let h = b.Block.header in
            h.Header.round = prev_round + 1
            && h.Header.proposer >= 0
            && h.Header.proposer < n
            && shaped h.Header.round rest
      in
      (* Internal hash links. *)
      let rec linked blocks hashes =
        match (blocks, hashes) with
        | _ :: ((b, _) :: _ as rest), h :: hs ->
            String.equal b.Block.header.Header.prev_hash h && linked rest hs
        | _ -> true
      in
      if
        not
          (shaped (expected_start - 1) v.blocks
          && linked v.blocks v.hashes
          && rotation_ok ~f v.blocks
          && blocks_sound registry v)
      then Invalid
      else
        (* Anchor the first block to our agreed prefix. *)
        match anchor (expected_start - 1) with
        | None -> Unanchored
        | Some prev_hash ->
            if String.equal first.Block.header.Header.prev_hash prev_hash
            then Adoptable
            else Invalid
