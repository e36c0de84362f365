(* Image layout, two nested envelopes:

     FLSNAP1 frame: magic | upto | era | app | app_hash | len |
       FLCHAIN1 frame: {!Fl_chain.Serial.write_chain_header} | block...

   Everything ahead of the first block is the small [head]; the blocks
   follow as immutable [segment]s, one per sealing interval, each
   holding one {!Fl_wire.Sparse} piece per round and its CRC-32, so a
   synthetic transaction's padding is a zero run until {!encode}
   writes the image out. A round the node's WAL logged is a piece of
   its Append frame (the WAL encoded and checksummed it once already);
   the rounds it did not log — pruned header-only rounds, rounds
   replayed after a restart, a donor's one-off build — are encoded.

   Sealing is incremental: {!seal} is handed the previous image and
   keeps each of its segments whose bytes cannot have changed, building
   only the rounds after them and any segment that went stale. Segment
   and frame CRCs are assembled from the piece CRCs with
   {!Fl_wire.Crc32.combine}, so no byte is checksummed twice. The
   cache key is content, not history: a segment is kept iff the store
   still holds the same block at its last round (the header hash
   commits to every block before it, bodies included) and the same
   number of its leading rounds lies below the prune boundary. So a
   [replace_suffix], an adopted chain or a power-fail and recover
   invalidates exactly the segments whose bytes change, and the prune
   boundary moving into a segment re-encodes just the rounds it made
   header-only. *)

open Fl_chain
open Fl_wire

let magic = "FLSNAP1\x01"

type t = {
  upto : int;
  era : int;
  app : string;
  app_hash : string;
  chain : Sparse.t;
}

(* ---------- sealing ---------- *)

type segment = {
  first : int;
  last : int;
  pruned : int;  (* leading rounds encoded header-only *)
  tip : string;  (* header hash of round [last] *)
  pieces : Sparse.t list;  (* one per round, in order *)
  crcs : int list;  (* each piece's CRC-32 *)
  length : int;
  crc : int;
}

type image = { head : string; segments : segment list; length : int }

let length i = i.length
let segments i = List.map (fun s -> (s.first, s.last, s.pieces)) i.segments

let pruned_in ~pruned_below ~first ~last =
  max 0 (min pruned_below (last + 1) - first)

(* Round [r] as the image holds it. Rounds below the prune boundary are
   header-only — what [Store.prune] of the truncated copy would have
   left — even where the live store still holds a body (a
   [replace_suffix] below its boundary re-appends bodies there). *)
let block_at store ~pruned_below r =
  match Store.get store r with
  | Some b when r < pruned_below && Array.length b.Block.txs > 0 ->
      { b with Block.txs = [||] }
  | Some b -> b
  | None -> invalid_arg "Snapshot.block_at"

(* One round's bytes and their CRC-32: the WAL's piece when it logged
   the very block value the image holds (a header-only copy is a value
   of its own, so it misses), else encoded here. *)
let round_piece ~wal b =
  match Option.bind wal (fun wal -> Wal.encoded_block wal b) with
  | Some piece -> piece
  | None ->
      Pool.with_writer (fun w ->
          Serial.encode_block w b;
          ( Codec.Writer.piece w,
            Codec.Writer.crc w ~pos:0 ~len:(Codec.Writer.length w) ))

let make_segment store ~first ~last ~pruned rounds =
  let length = ref 0 and crc = ref 0 in
  List.iter
    (fun (piece, piece_crc) ->
      let n = Sparse.length piece in
      length := !length + n;
      crc := Crc32.combine !crc piece_crc n)
    rounds;
  { first;
    last;
    pruned;
    tip = Option.get (Store.hash store last);
    pieces = List.map fst rounds;
    crcs = List.map snd rounds;
    length = !length;
    crc = !crc }

let encode_segment ~wal store ~pruned_below ~first ~last =
  make_segment store ~first ~last
    ~pruned:(pruned_in ~pruned_below ~first ~last)
    (List.init (last - first + 1) (fun k ->
         round_piece ~wal (block_at store ~pruned_below (first + k))))

(* The prune boundary moved up into [s], whose rounds are unchanged:
   only the rounds that became header-only are encoded again, every
   other round keeps its piece. *)
let prune_segment store ~pruned_below s =
  let pruned = pruned_in ~pruned_below ~first:s.first ~last:s.last in
  let from = s.first + s.pruned and upto = s.first + pruned in
  make_segment store ~first:s.first ~last:s.last ~pruned
    (List.mapi
       (fun k kept ->
         let r = s.first + k in
         if r >= from && r < upto then
           round_piece ~wal:None (block_at store ~pruned_below r)
         else kept)
       (List.combine s.pieces s.crcs))

(* Keep, prune or re-encode each cached range in order (a cache is
   always contiguous from round 0), then encode the rounds after the
   last one as a new segment. A cached range reaching past [upto] (the
   chain got shorter) ends the reuse. *)
let collect_segments ~wal store ~pruned_below ~upto cached =
  let fresh first last =
    encode_segment ~wal store ~pruned_below ~first ~last
  in
  let rec go next acc = function
    | s :: rest when s.last <= upto ->
        let pruned = pruned_in ~pruned_below ~first:s.first ~last:s.last in
        let s =
          if Store.hash store s.last <> Some s.tip then fresh s.first s.last
          else if pruned = s.pruned then s
          else if pruned > s.pruned then prune_segment store ~pruned_below s
          else fresh s.first s.last
        in
        go (s.last + 1) (s :: acc) rest
    | _ ->
        List.rev (if next > upto then acc else fresh next upto :: acc)
  in
  go 0 [] cached

let crc_over crc segments =
  List.fold_left (fun crc s -> Crc32.combine crc s.crc s.length) crc segments

let seal_impl ~prev ~wal ~store ~upto ~era ~app ~app_hash =
  if upto >= Store.length store then None
  else begin
    let pruned_below = max 0 (min (Store.pruned_below store) (upto + 1)) in
    let segments =
      collect_segments ~wal store ~pruned_below ~upto
        (match prev with Some i -> i.segments | None -> [])
    in
    let seg_bytes =
      List.fold_left (fun n (s : segment) -> n + s.length) 0 segments
    in
    let chain_fields =
      Pool.with_writer (fun w ->
          Serial.write_chain_header w ~length:(max 0 (upto + 1)) ~pruned_below;
          Codec.Writer.contents w)
    in
    let chain_crc = crc_over (Crc32.digest_int chain_fields) segments in
    let head =
      Pool.with_writer (fun w ->
          let start = Codec.Writer.reserve w Envelope.header_bytes in
          Codec.Writer.raw w magic;
          Codec.Writer.varint w upto;
          Codec.Writer.varint w era;
          Codec.Writer.bytes w app;
          Codec.Writer.bytes w app_hash;
          Codec.Writer.varint w
            (Envelope.header_bytes + String.length chain_fields + seg_bytes);
          let cstart = Codec.Writer.reserve w Envelope.header_bytes in
          Envelope.patch_header w ~start:cstart ~tag:0 ~crc:chain_crc;
          Codec.Writer.raw w chain_fields;
          let body = start + Envelope.header_bytes in
          let head_crc =
            Codec.Writer.crc w ~pos:body ~len:(Codec.Writer.length w - body)
          in
          Envelope.patch_header w ~start ~tag:0
            ~crc:(crc_over head_crc segments);
          Codec.Writer.contents w)
    in
    Some { head; segments; length = String.length head + seg_bytes }
  end

(* Self-profiling bracket (Fl_prof): sealing is snapshot encode, so it
   is attributed to codec_encode like every other frame. *)
let seal ~prev ~wal ~store ~upto ~era ~app ~app_hash =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_encode (fun () ->
        seal_impl ~prev ~wal ~store ~upto ~era ~app ~app_hash)
  else seal_impl ~prev ~wal ~store ~upto ~era ~app ~app_hash

(* A one-off snapshot: the sealer with nothing cached. *)
let build = seal ~prev:None ~wal:None

(* The image as one piece: the zero runs stay counts — what restart
   recovery reads. *)
let piece i =
  Sparse.concat
    (Sparse.of_string i.head :: List.concat_map (fun s -> s.pieces) i.segments)

(* The image as one contiguous string, zeros written out — only where
   its bytes leave as bytes (a state-transfer donor's chunks). *)
let encode i = Sparse.to_string (piece i)

let decode p =
  match
    let tag, r = Envelope.open_ p in
    if tag <> 0 then Error "snapshot: bad tag"
    else begin
      (* in-place magic check: no 8-byte copy per decode *)
      Codec.Reader.expect_raw r magic;
      let upto = Codec.Reader.varint r in
      let era = Codec.Reader.varint r in
      let app = Codec.Reader.bytes r in
      let app_hash = Codec.Reader.bytes r in
      let chain = Codec.Reader.piece r (Codec.Reader.varint r) in
      if Codec.Reader.at_end r then Ok { upto; era; app; app_hash; chain }
      else Error "snapshot: trailing bytes"
    end
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "snapshot: truncated"
  | exception Codec.Malformed e -> Error ("snapshot: " ^ e)

let restore_chain t = Serial.decode_chain t.chain
