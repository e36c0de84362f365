(* Image layout, two nested envelopes:

     FLSNAP1 frame: magic | upto | era | app | app_hash | len |
       FLCHAIN1 frame: {!Fl_chain.Serial.write_chain_header} | block...

   Everything ahead of the first block is the small [head]; the blocks
   follow as immutable [segment]s, one per sealing interval, each
   holding the byte slices it is made of and their CRC-32. A round the
   node's WAL logged is a slice of its Append frame (the WAL encoded
   and checksummed it once already); the rounds it did not log — pruned
   header-only rounds, rounds replayed after a restart, a donor's
   one-off build — are encoded, a run of them into one piece.

   Sealing is incremental: {!seal} is handed the previous image and
   keeps each of its segments whose bytes cannot have changed, building
   only the rounds after them and any segment that went stale. Segment
   and frame CRCs are assembled from the piece CRCs with
   {!Fl_wire.Crc32.combine}, so no byte is checksummed twice. The
   cache key is content, not history: a segment is kept iff the store
   still holds the same block at its last round (the header hash
   commits to every block before it, bodies included) and the same
   number of its leading rounds lies below the prune boundary. So a
   [replace_suffix], an adopted chain, a power-fail and recover, or the
   prune boundary moving into a segment each invalidate exactly the
   segments whose bytes change. *)

open Fl_chain
open Fl_wire

let magic = "FLSNAP1\x01"

type t = {
  upto : int;
  era : int;
  app : string;
  app_hash : string;
  chain : string;
}

(* ---------- sealing ---------- *)

type segment = {
  first : int;
  last : int;
  pruned : int;  (* leading rounds encoded header-only *)
  tip : string;  (* header hash of round [last] *)
  pieces : Codec.Slice.t list;  (* the encoded rounds, in order *)
  length : int;
  crc : int;
}

type image = { head : string; segments : segment list; length : int }

let length i = i.length
let segments i = List.map (fun s -> (s.first, s.last, s.pieces)) i.segments

let pruned_in ~pruned_below ~first ~last =
  max 0 (min pruned_below (last + 1) - first)

(* A round's bytes come from the WAL when it logged the very block
   value the image holds there; a run of rounds it did not is encoded
   into one piece and checksummed once. Rounds below the prune boundary
   are header-only — what [Store.prune] of the truncated copy would
   have left — even where the live store still holds a body (a
   [replace_suffix] below its boundary re-appends bodies there); that
   header-only copy is a value of its own, so it misses. *)
let encode_segment ~wal store ~pruned_below ~first ~last =
  let block r =
    match Store.get store r with
    | Some b when r < pruned_below && Array.length b.Block.txs > 0 ->
        { b with Block.txs = [||] }
    | Some b -> b
    | None -> invalid_arg "Snapshot.encode_segment"
  in
  let logged b = Option.bind wal (fun wal -> Wal.encoded_block wal b) in
  let pieces = ref [] and length = ref 0 and crc = ref 0 in
  let add piece piece_crc =
    pieces := piece :: !pieces;
    length := !length + Codec.Slice.length piece;
    crc := Crc32.combine !crc piece_crc (Codec.Slice.length piece)
  in
  (* The run of rounds from [r] up to the next one the WAL holds, and
     its encoded length. *)
  let rec run_end r len =
    if r > last then (r, len)
    else
      let b = block r in
      match logged b with
      | Some _ -> (r, len)
      | None -> run_end (r + 1) (len + Serial.encoded_length b)
  in
  let rec go r =
    if r <= last then
      match logged (block r) with
      | Some (slice, slice_crc) ->
          add slice slice_crc;
          go (r + 1)
      | None ->
          (* one piece, in a writer of exactly its size *)
          let next, len = run_end r 0 in
          let w = Codec.Writer.create ~capacity:len () in
          for k = r to next - 1 do
            Serial.encode_block w (block k)
          done;
          add
            (Codec.Slice.of_string (Codec.Writer.contents w))
            (Crc32.digest_int_bytes_sub (Codec.Writer.unsafe_bytes w) ~pos:0
               ~len);
          go next
  in
  go first;
  { first;
    last;
    pruned = pruned_in ~pruned_below ~first ~last;
    tip = Option.get (Store.hash store last);
    pieces = List.rev !pieces;
    length = !length;
    crc = !crc }

(* Keep or re-encode each cached range in order (a cache is always
   contiguous from round 0), then encode the rounds after the last one
   as a new segment. A cached range reaching past [upto] (the chain got
   shorter) ends the reuse. *)
let collect_segments ~wal store ~pruned_below ~upto cached =
  let fresh first last =
    encode_segment ~wal store ~pruned_below ~first ~last
  in
  let rec go next acc = function
    | s :: rest when s.last <= upto ->
        let s =
          if
            s.pruned = pruned_in ~pruned_below ~first:s.first ~last:s.last
            && Store.hash store s.last = Some s.tip
          then s
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
            Crc32.digest_int_bytes_sub
              (Codec.Writer.unsafe_bytes w)
              ~pos:body ~len:(Codec.Writer.length w - body)
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

(* The image as one contiguous string — only where its bytes are
   actually read (recovery at restart, a state-transfer donor). *)
let encode i =
  let b = Bytes.create i.length in
  Bytes.blit_string i.head 0 b 0 (String.length i.head);
  ignore
    (List.fold_left
       (fun off s ->
         List.fold_left
           (fun off (p : Codec.Slice.t) ->
             Bytes.blit_string p.base p.off b off p.len;
             off + p.len)
           off s.pieces)
       (String.length i.head) i.segments);
  Bytes.unsafe_to_string b

let decode s =
  match
    let tag, r = Envelope.open_ s in
    if tag <> 0 then Error "snapshot: bad tag"
    else begin
      (* in-place magic check: no 8-byte copy per decode *)
      Codec.Reader.expect_raw r magic;
      let upto = Codec.Reader.varint r in
      let era = Codec.Reader.varint r in
      let app = Codec.Reader.bytes r in
      let app_hash = Codec.Reader.bytes r in
      let chain = Codec.Reader.bytes r in
      if Codec.Reader.at_end r then Ok { upto; era; app; app_hash; chain }
      else Error "snapshot: trailing bytes"
    end
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "snapshot: truncated"
  | exception Codec.Malformed e -> Error ("snapshot: " ^ e)

let restore_chain t = Serial.decode_chain t.chain
