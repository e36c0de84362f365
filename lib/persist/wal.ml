(* Truncation after a snapshot drops sealed segments whose records
   only concern rounds at or below the snapshot; segments are
   time-ordered, so the survivors still form a contiguous suffix.

   The log keeps each frame as the {!Sparse} piece its writer made: an
   Append's synthetic padding is a zero run from the moment
   {!Serial.encode_tx} pads, in the log and in the media image a power
   failure leaves. *)

open Fl_chain
open Fl_wire

type record =
  | Append of { block : Block.t; signature : string }
  | Truncate of { from : int }
  | Definite of { upto : int; era : int }

let round_of = function
  | Append { block; _ } -> block.Block.header.Header.round
  | Truncate { from } -> from
  | Definite { upto; _ } -> upto

(* A record is a sealed envelope: record kind = envelope tag, CRC
   protection comes with the envelope. *)
let record_tag = function Append _ -> 1 | Truncate _ -> 2 | Definite _ -> 3

let write_record w = function
  | Append { block; signature } ->
      Codec.Writer.bytes w signature;
      Serial.encode_block w block
  | Truncate { from } -> Codec.Writer.varint w from
  | Definite { upto; era } ->
      (* [upto] is −1 until the first block becomes definite (a bare
         era watermark) — shift by one for the unsigned varint *)
      Codec.Writer.varint w (upto + 1);
      Codec.Writer.varint w era

let encode_record r =
  Envelope.seal ~tag:(record_tag r) (fun w -> write_record w r)

let read_record tag r =
  match tag with
  | 1 ->
      let signature = Codec.Reader.bytes r in
      Result.map
        (fun block -> Append { block; signature })
        (Serial.decode_block r)
  | 2 -> Ok (Truncate { from = Codec.Reader.varint r })
  | 3 ->
      let upto = Codec.Reader.varint r - 1 in
      let era = Codec.Reader.varint r in
      Ok (Definite { upto; era })
  | tag -> Error (Printf.sprintf "unknown WAL record tag %d" tag)

let decode_record p =
  match
    let tag, r = Envelope.open_ p in
    match read_record tag r with
    | Ok _ when not (Codec.Reader.at_end r) ->
        Error "WAL record: trailing bytes"
    | result -> result
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "truncated WAL record"
  | exception Codec.Malformed e -> Error e

(* Where an appended block's bytes sit: [piece] is the block's
   encoding inside the Append frame that logged [block], [crc] that
   encoding's CRC-32. The snapshot sealer takes these bytes instead of
   encoding the block again. *)
type encoded = { block : Block.t; piece : Sparse.t; crc : int }

type segment = {
  mutable frames : Sparse.t list;  (* newest first *)
  mutable bytes : int;
  mutable max_round : int;  (* highest round any record concerns *)
}

type t = {
  segment_bytes : int;
  mutable sealed : segment list;  (* newest first *)
  mutable active : segment;
  mutable total_frames : int;
  mutable durable_frames : int;
  mutable truncated_segments : int;
  scratch : Codec.Writer.t;
      (* per-log grow-only build buffer: every record frame is
         assembled here in place — length prefix reserved, envelope
         sealed directly behind it, length patched — so an append
         allocates only the frame's piece *)
  encoded : (int, encoded) Hashtbl.t;
      (* by round: the last block appended there, until a snapshot
         supersedes the round ([truncate]) or recovery rebuilds the
         log ([reset_to_frames]) *)
}

let fresh_segment () = { frames = []; bytes = 0; max_round = -1 }

let create ~segment_bytes =
  if segment_bytes <= 0 then invalid_arg "Wal.create: segment_bytes";
  { segment_bytes;
    sealed = [];
    active = fresh_segment ();
    total_frames = 0;
    durable_frames = 0;
    truncated_segments = 0;
    scratch = Codec.Writer.create ~capacity:4096 ();
    encoded = Hashtbl.create 16 }

(* An Append envelope sealed by hand: its body is [signature | block],
   and the two pieces are checksummed apart, the frame CRC combined
   from them — still one pass over the literal bytes (runs are
   counts), and the block's own CRC falls out of it. Returns the
   block's offset and CRC. *)
let seal_append_impl w record ~signature =
  let start = Codec.Writer.reserve w Envelope.header_bytes in
  write_record w record;
  let body = start + Envelope.header_bytes in
  let off =
    body + Codec.varint_size (String.length signature) + String.length signature
  in
  let len = Codec.Writer.length w - off in
  let crc = Codec.Writer.crc w ~pos:off ~len in
  let sig_crc = Codec.Writer.crc w ~pos:body ~len:(off - body) in
  Envelope.patch_header w ~start ~tag:(record_tag record)
    ~crc:(Crc32.combine sig_crc crc len);
  (off, crc)

(* Attributed to codec_encode like every other envelope seal. *)
let seal_append w record ~signature =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.codec_encode (fun () ->
        seal_append_impl w record ~signature)
  else seal_append_impl w record ~signature

(* Build one record's framed bytes — [u32 length | sealed envelope] —
   in the log's scratch buffer, one pass, and keep the writer's piece.
   For an Append, also where the block's encoding sits in the frame
   and its CRC; [(0, 0)] otherwise. *)
let build_frame_impl t record =
  let w = t.scratch in
  Codec.Writer.clear w;
  let len_off = Codec.Writer.reserve w 4 in
  let block_at =
    match record with
    | Append { signature; _ } -> seal_append w record ~signature
    | Truncate _ | Definite _ ->
        Envelope.seal_into w ~tag:(record_tag record) (fun w ->
            write_record w record);
        (0, 0)
  in
  Codec.Writer.patch_u32 w len_off (Codec.Writer.length w - 4);
  (Codec.Writer.piece w, block_at)

(* Self-profiling bracket (Fl_prof): record encode + length framing —
   the WAL's share of host time, with the nested envelope seal
   re-attributed to codec_encode by the frame stack. *)
let build_frame_at t record =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.wal (fun () -> build_frame_impl t record)
  else build_frame_impl t record

let build_frame t record = fst (build_frame_at t record)

(* Put one framed record into the active segment, sealing it once it
   reaches [segment_bytes]. *)
let push_frame t fr ~round =
  let seg = t.active in
  seg.frames <- fr :: seg.frames;
  seg.bytes <- seg.bytes + Sparse.length fr;
  seg.max_round <- max seg.max_round round;
  t.total_frames <- t.total_frames + 1;
  if seg.bytes >= t.segment_bytes then begin
    t.sealed <- seg :: t.sealed;
    t.active <- fresh_segment ()
  end

(* Append one record; returns the framed byte count (the disk write
   the caller must account for). *)
let append t record =
  let fr, (off, crc) = build_frame_at t record in
  let round = round_of record in
  (match record with
  | Append { block; _ } ->
      Hashtbl.replace t.encoded round
        { block; piece = Sparse.sub fr ~pos:off ~len:(Sparse.length fr - off); crc }
  | Truncate _ | Definite _ -> ());
  push_frame t fr ~round;
  Sparse.length fr

(* A hit only for the very value that was appended: its bytes are then
   that value's encoding by construction, whatever another block at
   the same round (an adopted version, a forged body) may hold. *)
let encoded_block t (block : Block.t) =
  match Hashtbl.find_opt t.encoded block.Block.header.Header.round with
  | Some e when e.block == block -> Some (e.piece, e.crc)
  | Some _ | None -> None

let mark_durable t = t.durable_frames <- t.total_frames

(* Frames up to [n] (a [total_frames] reading taken before the fsync
   was issued) are now stable; frames appended while the fsync was in
   flight are not. *)
let mark_durable_upto t n =
  t.durable_frames <- max t.durable_frames (min n t.total_frames)

let pending_frames t = t.total_frames - t.durable_frames
let total_frames t = t.total_frames
let segments t = List.length t.sealed + 1
let truncated_segments t = t.truncated_segments

(* All frames oldest-first. *)
let all_frames t =
  List.concat_map
    (fun seg -> List.rev seg.frames)
    (List.rev (t.active :: t.sealed))

(* The media image a power failure leaves behind: the durable frame
   prefix, plus — when [torn] and a non-durable frame exists — a
   partial fragment of the first frame past the watermark, cut
   mid-frame so replay sees either a length underflow or a CRC
   mismatch. One piece: the zero runs stay counts on the media too. *)
let power_fail_image t ~torn =
  let frames = all_frames t in
  let rec take k = function
    | [] -> ([], [])
    | rest when k = 0 -> ([], rest)
    | fr :: rest ->
        let kept, dropped = take (k - 1) rest in
        (fr :: kept, dropped)
  in
  let durable, pending = take t.durable_frames frames in
  let fragment =
    match (torn, pending) with
    | true, fr :: _ when Sparse.length fr > 1 ->
        (* Cut inside the frame: keep the length prefix and roughly half
           the payload — deterministic, no RNG. *)
        let len = Sparse.length fr in
        let cut = max 1 (4 + ((len - 4) / 2)) in
        [ Sparse.sub fr ~pos:0 ~len:(min cut (len - 1)) ]
    | _ -> []
  in
  Sparse.concat (durable @ fragment)

(* Replace the log's contents with a recovered media image: every
   frame on it is durable by construction. *)
let reset_to_frames t frames =
  Hashtbl.reset t.encoded;
  t.sealed <- [];
  t.active <- fresh_segment ();
  t.total_frames <- 0;
  List.iter (fun (fr, round) -> push_frame t fr ~round) frames;
  t.durable_frames <- t.total_frames

(* Drop sealed segments that a snapshot at [upto] supersedes: every
   record in them concerns a round <= [upto]. Segments are
   chronological, so the kept ones are a contiguous suffix. *)
let truncate t ~upto =
  Hashtbl.filter_map_inplace
    (fun round e -> if round <= upto then None else Some e)
    t.encoded;
  let kept, dropped =
    List.partition (fun seg -> seg.max_round > upto) t.sealed
  in
  List.iter
    (fun seg ->
      t.total_frames <- t.total_frames - List.length seg.frames;
      t.durable_frames <- t.durable_frames - List.length seg.frames)
    dropped;
  t.sealed <- kept;
  t.truncated_segments <- t.truncated_segments + List.length dropped;
  List.length dropped

(* ---------- replay ---------- *)

type replay = {
  records : record list;  (* oldest first, valid prefix only *)
  frames : (Sparse.t * int) list;
      (* the same prefix's verified frames, as read off the media and
         copied out of it, each with its record's round — what
         [reset_to_frames] takes *)
  torn : bool;  (* a partial / corrupt tail was detected and discarded *)
}

let u32_string n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

(* Parse a media image into its valid record prefix. Stops (and flags
   [torn]) at the first length underflow, CRC mismatch or undecodable
   record — everything after a torn frame is garbage. *)
let replay_media_impl media =
  let r = Codec.Reader.of_piece media in
  let records = ref [] in
  let frames = ref [] in
  let torn = ref false in
  let stop = ref false in
  while (not !stop) && not (Codec.Reader.at_end r) do
    if Codec.Reader.remaining r < 4 then begin
      torn := true;
      stop := true
    end
    else begin
      let flen = Codec.Reader.u32 r in
      if Codec.Reader.remaining r < flen then begin
        torn := true;
        stop := true
      end
      else
        (* Zero-copy: the envelope opens directly over the media
           window; version/CRC mismatches surface as Malformed. *)
        let frame = Codec.Reader.piece r flen in
        match Envelope.open_ frame with
        | exception (Codec.Reader.Underflow | Codec.Malformed _) ->
            torn := true;
            stop := true
        | tag, body -> (
            match read_record tag body with
            | Ok rec_ when Codec.Reader.at_end body ->
                records := rec_ :: !records;
                frames :=
                  ( Sparse.concat [ Sparse.of_string (u32_string flen); frame ],
                    round_of rec_ )
                  :: !frames
            | Ok _ | Error _ ->
                torn := true;
                stop := true
            | exception (Codec.Reader.Underflow | Codec.Malformed _) ->
                torn := true;
                stop := true)
    end
  done;
  { records = List.rev !records; frames = List.rev !frames; torn = !torn }

(* Self-profiling bracket: replay parsing is attributed to the WAL. *)
let replay_media media =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.wal (fun () -> replay_media_impl media)
  else replay_media_impl media
