(* [base] from [off] to its end is a run of chunks
   [varint lit | lit bytes | varint zeros]; they expand to [len]
   bytes. A piece always starts on a chunk, which is what [drop] keeps
   true. *)
type t = { base : string; off : int; len : int }

let length t = t.len

let compact src ~pos ~len runs =
  if pos < 0 || len < 0 || len > Bytes.length src - pos then
    invalid_arg "Sparse.compact";
  let stop = pos + len in
  Pool.with_writer (fun w ->
      let cursor = ref pos in
      runs (fun at n ->
          if at < !cursor || n < 0 || n > stop - at then
            invalid_arg "Sparse.compact: run";
          (* a zero-length run at the cursor is already a cut *)
          if n > 0 || at > !cursor then begin
            Codec.Writer.varint w (at - !cursor);
            Codec.Writer.raw_bytes w src ~pos:!cursor ~len:(at - !cursor);
            Codec.Writer.varint w n;
            cursor := at + n
          end);
      if !cursor < stop then begin
        Codec.Writer.varint w (stop - !cursor);
        Codec.Writer.raw_bytes w src ~pos:!cursor ~len:(stop - !cursor);
        Codec.Writer.varint w 0
      end;
      { base = Codec.Writer.contents w; off = 0; len })

(* The varint at [!pos] of [s], advancing [pos]: the compact form is
   our own output, so no bounds checks beyond the string's. *)
let read s pos =
  let rec go shift acc =
    let b = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Sparse.drop";
  let pos = ref t.off and skipped = ref 0 in
  while !skipped < n do
    let lit = read t.base pos in
    pos := !pos + lit;
    skipped := !skipped + lit + read t.base pos
  done;
  if !skipped <> n then invalid_arg "Sparse.drop: not a cut";
  { t with off = !pos; len = t.len - n }

let blit t dst off =
  if off < 0 || t.len > Bytes.length dst - off then invalid_arg "Sparse.blit";
  let pos = ref t.off and out = ref off in
  while !pos < String.length t.base do
    let lit = read t.base pos in
    Bytes.blit_string t.base !pos dst !out lit;
    pos := !pos + lit;
    let zeros = read t.base pos in
    Bytes.fill dst (!out + lit) zeros '\000';
    out := !out + lit + zeros
  done

let to_string t =
  let b = Bytes.create t.len in
  blit t b 0;
  Bytes.unsafe_to_string b
