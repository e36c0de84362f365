(* Image layout, two nested envelopes:

     FLSNAP1 frame: magic | upto | era | app | app_hash | len |
       FLCHAIN1 frame: {!Fl_chain.Serial.write_chain_header} | block...

   Everything ahead of the first block is the small [head]; the blocks
   follow as immutable [segment]s, one per sealing interval, each
   holding its encoded bytes and their CRC-32.

   Sealing is incremental: {!seal} is handed the previous image and
   keeps each of its segments whose bytes cannot have changed, encoding
   only the rounds after them and any segment that went stale. Both
   frame CRCs are assembled from the segment CRCs with
   {!Fl_wire.Crc32.combine}, so a kept segment is never re-read. The
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
  bytes : string;
  crc : int;
}

type image = { head : string; segments : segment list; length : int }

let length i = i.length
let segments i = List.map (fun s -> (s.first, s.last, s.bytes)) i.segments

let pruned_in ~pruned_below ~first ~last =
  max 0 (min pruned_below (last + 1) - first)

(* Rounds below the prune boundary encode header-only — what
   [Store.prune] of the truncated copy would have left — even where
   the live store still holds a body (a [replace_suffix] below its
   boundary re-appends bodies there). *)
let encode_segment store ~pruned_below ~first ~last =
  let block r =
    match Store.get store r with
    | Some b -> b
    | None -> invalid_arg "Snapshot.encode_segment"
  in
  let capacity = ref 0 in
  for r = first to last do
    let h = (block r).Block.header in
    capacity :=
      !capacity + 128
      + if r < pruned_below then 0
        else h.Header.body_size + (16 * h.Header.tx_count)
  done;
  let w = Codec.Writer.create ~capacity:!capacity () in
  for r = first to last do
    let b = block r in
    if r < pruned_below then begin
      Serial.encode_header w b.Block.header;
      Serial.encode_txs w [||]
    end
    else Serial.encode_block w b
  done;
  let bytes = Codec.Writer.contents w in
  { first;
    last;
    pruned = pruned_in ~pruned_below ~first ~last;
    tip = Option.get (Store.hash store last);
    bytes;
    crc = Crc32.digest_int bytes }

(* Keep or re-encode each cached range in order (a cache is always
   contiguous from round 0), then encode the rounds after the last one
   as a new segment. A cached range reaching past [upto] (the chain got
   shorter) ends the reuse. *)
let collect_segments store ~pruned_below ~upto cached =
  let fresh first last = encode_segment store ~pruned_below ~first ~last in
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
  List.fold_left
    (fun crc s -> Crc32.combine crc s.crc (String.length s.bytes))
    crc segments

let seal_impl ~prev ~store ~upto ~era ~app ~app_hash =
  if upto >= Store.length store then None
  else begin
    let pruned_below = max 0 (min (Store.pruned_below store) (upto + 1)) in
    let segments =
      collect_segments store ~pruned_below ~upto
        (match prev with Some i -> i.segments | None -> [])
    in
    let seg_bytes =
      List.fold_left (fun n s -> n + String.length s.bytes) 0 segments
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
let seal ~prev ~store ~upto ~era ~app ~app_hash =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_encode (fun () ->
        seal_impl ~prev ~store ~upto ~era ~app ~app_hash)
  else seal_impl ~prev ~store ~upto ~era ~app ~app_hash

(* A one-off snapshot: the sealer with nothing cached. *)
let build = seal ~prev:None

(* The image as one contiguous string — only where its bytes are
   actually read (recovery at restart, a state-transfer donor). *)
let encode i =
  let b = Bytes.create i.length in
  Bytes.blit_string i.head 0 b 0 (String.length i.head);
  ignore
    (List.fold_left
       (fun off s ->
         Bytes.blit_string s.bytes 0 b off (String.length s.bytes);
         off + String.length s.bytes)
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
