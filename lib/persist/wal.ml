(* Segmented append-only write-ahead log.

   Records (block appends, recovery truncations, definiteness
   watermarks) ride the same {!Fl_wire.Envelope} as network frames —
   [u8 version | u8 tag | u32 crc32 | body] — behind a [u32 length]
   outer prefix, and are appended to the active segment; a segment
   seals once it exceeds [segment_bytes]. Durability is a frame-count
   watermark advanced by {!sync} (which fsyncs the underlying
   {!Disk}); a power failure keeps exactly the durable prefix,
   optionally plus a torn fragment of the first non-durable frame —
   which replay must detect (CRC or length underflow) and discard.

   Truncation after a snapshot drops sealed segments whose records
   only concern rounds at or below the snapshot; segments are
   time-ordered, so the survivors still form a contiguous suffix. *)

open Fl_chain
open Fl_wire

type record =
  | Append of { block : Block.t; signature : string }
      (** a tentatively decided block, with the proposer's header
          signature so a recovered node can serve pulls and versions *)
  | Truncate of { from : int }
      (** recovery adopted a version: rounds >= [from] were replaced
          by the Appends that follow this record *)
  | Definite of { upto : int; era : int }
      (** definiteness watermark and completed-recovery count *)

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

let decode_record s =
  match
    let tag, r = Envelope.open_ s in
    match read_record tag r with
    | Ok _ when not (Codec.Reader.at_end r) ->
        Error "WAL record: trailing bytes"
    | result -> result
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "truncated WAL record"
  | exception Codec.Malformed e -> Error e

type segment = {
  mutable frames : string list;  (* newest first *)
  mutable bytes : int;
  mutable max_round : int;  (* highest round any record concerns *)
}

type t = {
  segment_bytes : int;
  mutable sealed : segment list;  (* newest first *)
  mutable active : segment;
  mutable total_frames : int;
  mutable durable_frames : int;
  mutable total_bytes : int;
  mutable appends : int;
  mutable truncated_segments : int;
  scratch : Codec.Writer.t;
      (* per-log grow-only build buffer: every record frame is
         assembled here in place — length prefix reserved, envelope
         sealed directly behind it, length patched — so an append
         allocates only the final frame string *)
}

let fresh_segment () = { frames = []; bytes = 0; max_round = -1 }

let create ~segment_bytes =
  if segment_bytes <= 0 then invalid_arg "Wal.create: segment_bytes";
  { segment_bytes;
    sealed = [];
    active = fresh_segment ();
    total_frames = 0;
    durable_frames = 0;
    total_bytes = 0;
    appends = 0;
    truncated_segments = 0;
    scratch = Codec.Writer.create ~capacity:4096 () }

(* Build one record's framed bytes — [u32 length | sealed envelope] —
   in the log's scratch buffer, one pass, no intermediate strings. *)
let build_frame_impl t record =
  let w = t.scratch in
  Codec.Writer.clear w;
  let len_off = Codec.Writer.reserve w 4 in
  Envelope.seal_into w ~tag:(record_tag record) (fun w ->
      write_record w record);
  Codec.Writer.patch_u32 w len_off (Codec.Writer.length w - 4);
  Codec.Writer.contents w

(* Self-profiling bracket (Fl_prof): record encode + length framing —
   the WAL's share of host time, with the nested envelope seal
   re-attributed to codec_encode by the frame stack. *)
let build_frame t record =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.wal;
    match build_frame_impl t record with
    | fr ->
        Fl_prof.Prof.leave ();
        fr
    | exception e ->
        Fl_prof.Prof.leave ();
        raise e
  end
  else build_frame_impl t record

(* Append one record; returns the framed byte count (the disk write
   the caller must account for). *)
let append t record =
  let fr = build_frame t record in
  let seg = t.active in
  seg.frames <- fr :: seg.frames;
  seg.bytes <- seg.bytes + String.length fr;
  seg.max_round <- max seg.max_round (round_of record);
  t.total_frames <- t.total_frames + 1;
  t.total_bytes <- t.total_bytes + String.length fr;
  t.appends <- t.appends + 1;
  if seg.bytes >= t.segment_bytes then begin
    t.sealed <- seg :: t.sealed;
    t.active <- fresh_segment ()
  end;
  String.length fr

let mark_durable t = t.durable_frames <- t.total_frames

(* Frames up to [n] (a [total_frames] reading taken before the fsync
   was issued) are now stable; frames appended while the fsync was in
   flight are not. *)
let mark_durable_upto t n =
  t.durable_frames <- max t.durable_frames (min n t.total_frames)

let pending_frames t = t.total_frames - t.durable_frames
let durable_frames t = t.durable_frames
let total_frames t = t.total_frames
let total_bytes t = t.total_bytes
let appends t = t.appends
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
   mismatch. *)
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
  let buf = Buffer.create 4096 in
  List.iter (Buffer.add_string buf) durable;
  (match (torn, pending) with
  | true, fr :: _ when String.length fr > 1 ->
      (* Cut inside the frame: keep the length prefix and roughly half
         the payload — deterministic, no RNG. *)
      let cut = max 1 (4 + ((String.length fr - 4) / 2)) in
      Buffer.add_string buf (String.sub fr 0 (min cut (String.length fr - 1)))
  | _ -> ());
  Buffer.contents buf

(* Replace the log's contents with a recovered media image: every
   frame on it is durable by construction. *)
let reset_to_frames t frames =
  t.sealed <- [];
  t.active <- fresh_segment ();
  t.total_frames <- 0;
  t.durable_frames <- 0;
  t.total_bytes <- 0;
  List.iter
    (fun (fr, round) ->
      let seg = t.active in
      seg.frames <- fr :: seg.frames;
      seg.bytes <- seg.bytes + String.length fr;
      seg.max_round <- max seg.max_round round;
      t.total_frames <- t.total_frames + 1;
      t.total_bytes <- t.total_bytes + String.length fr;
      if seg.bytes >= t.segment_bytes then begin
        t.sealed <- seg :: t.sealed;
        t.active <- fresh_segment ()
      end)
    frames;
  t.durable_frames <- t.total_frames

(* Drop sealed segments that a snapshot at [upto] supersedes: every
   record in them concerns a round <= [upto]. Segments are
   chronological, so the kept ones are a contiguous suffix. *)
let truncate t ~upto =
  let kept, dropped =
    List.partition (fun seg -> seg.max_round > upto) t.sealed
  in
  List.iter
    (fun seg ->
      t.total_frames <- t.total_frames - List.length seg.frames;
      t.durable_frames <- t.durable_frames - List.length seg.frames;
      t.total_bytes <- t.total_bytes - seg.bytes)
    dropped;
  t.sealed <- kept;
  t.truncated_segments <- t.truncated_segments + List.length dropped;
  List.length dropped

(* ---------- replay ---------- *)

type replay = {
  records : record list;  (* oldest first, valid prefix only *)
  frames : (string * int) list;
      (* the same prefix's verified frame bytes, as read off the media,
         each with its record's round — what [reset_to_frames] takes *)
  torn : bool;  (* a partial / corrupt tail was detected and discarded *)
}

(* Parse a media byte image into its valid record prefix. Stops (and
   flags [torn]) at the first length underflow, CRC mismatch or
   undecodable record — everything after a torn frame is garbage. *)
let replay_media_impl media =
  let len = String.length media in
  let pos = ref 0 in
  let records = ref [] in
  let frames = ref [] in
  let torn = ref false in
  let stop = ref false in
  while (not !stop) && !pos < len do
    if len - !pos < 4 then begin
      torn := true;
      stop := true
    end
    else begin
      let r = Codec.Reader.of_substring media ~pos:!pos ~len:(len - !pos) in
      let flen = Codec.Reader.u32 r in
      if len - !pos - 4 < flen then begin
        torn := true;
        stop := true
      end
      else
        (* Zero-copy: the envelope opens directly over the media
           window; version/CRC mismatches surface as Malformed. *)
        match Envelope.open_sub media ~pos:(!pos + 4) ~len:flen with
        | exception (Codec.Reader.Underflow | Codec.Malformed _) ->
            torn := true;
            stop := true
        | tag, body -> (
            match read_record tag body with
            | Ok rec_ when Codec.Reader.at_end body ->
                records := rec_ :: !records;
                frames :=
                  (String.sub media !pos (4 + flen), round_of rec_) :: !frames;
                pos := !pos + 4 + flen
            | Ok _ | Error _ ->
                torn := true;
                stop := true
            | exception (Codec.Reader.Underflow | Codec.Malformed _) ->
                torn := true;
                stop := true)
    end
  done;
  { records = List.rev !records; frames = List.rev !frames; torn = !torn }

(* Self-profiling bracket: replay parsing is total (never raises), so
   a plain leave suffices. *)
let replay_media media =
  if !Fl_prof.Prof.on then begin
    Fl_prof.Prof.enter Fl_prof.Prof.wal;
    let r = replay_media_impl media in
    Fl_prof.Prof.leave ();
    r
  end
  else replay_media_impl media
