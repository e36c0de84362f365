open Fl_wire

let magic = "FLCHAIN1"

(* Wire-true transactions: the frame carries [size] payload bytes
   either way — real payload bytes, or zero padding standing in for a
   synthetic payload — so the length of any encoding containing
   transactions is the byte count the NIC model must charge. The
   padding is a writer zero run ({!Fl_wire.Codec.Writer.pad}): counted,
   checksummed and skipped, never written. The
   flag byte distinguishes the two so decode round-trips exactly
   ([payload = ""] stays [""]). Per-tx envelope: id(8) + size(4) +
   flag(1) = 13 bytes. *)
let encode_tx w (tx : Tx.t) =
  Codec.Writer.u64 w tx.Tx.id;
  Codec.Writer.u32 w tx.Tx.size;
  if tx.Tx.payload = "" then begin
    Codec.Writer.u8 w 0;
    Codec.Writer.pad w tx.Tx.size
  end
  else begin
    Codec.Writer.u8 w 1;
    Codec.Writer.raw w tx.Tx.payload
  end

let decode_tx r =
  let id = Codec.Reader.u64 r in
  let size = Codec.Reader.u32 r in
  match Codec.Reader.u8 r with
  | 0 ->
      (* Synthetic: the padding is simulated payload — skip it
         without materialising a copy (over a piece, one step past
         its zero run). *)
      Codec.Reader.skip r size;
      Tx.create ~id ~size
  | 1 -> Tx.create_payload ~id (Codec.Reader.raw r size)
  | f -> raise (Codec.Malformed (Printf.sprintf "tx: flag %d" f))

let encode_header w (h : Header.t) = Codec.Writer.raw w (Header.encode h)

let decode_header r =
  let round = Codec.Reader.u64 r in
  let proposer = Codec.Reader.u32 r in
  let prev_hash = Codec.Reader.raw r 32 in
  let body_hash = Codec.Reader.raw r 32 in
  let tx_count = Codec.Reader.u32 r in
  let body_size = Codec.Reader.u64 r in
  Header.make ~round ~proposer ~prev_hash ~body_hash ~tx_count ~body_size

let encode_txs w txs =
  Codec.Writer.varint w (Array.length txs);
  Array.iter (encode_tx w) txs

(* The count is validated against the bytes actually present (every
   transaction costs ≥ 13 bytes) before any allocation, so adversarial
   frames cannot demand implausible arrays. *)
let decode_txs r =
  let count = Codec.Reader.seq_len r in
  Array.init count (fun _ -> decode_tx r)

let encode_block w (b : Block.t) =
  encode_header w b.Block.header;
  encode_txs w b.Block.txs

(* Structural parse only — commitment checks stay with the protocol
   layer (recovery versions must *observe* a mismatched body to count
   it as Byzantine rather than never seeing the message). *)
let read_block r =
  let header = decode_header r in
  let txs = decode_txs r in
  { Block.header; txs }

let decode_block r =
  match
    let b = read_block r in
    if Array.length b.Block.txs > 0 || b.Block.header.Header.tx_count = 0
    then
      if Block.body_matches b then Ok b else Error "body commitment mismatch"
    else Ok b (* pruned body: header-only *)
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "truncated block"
  | exception Codec.Malformed e -> Error e

let block_to_string b =
  let w =
    Codec.Writer.create
      ~capacity:(b.Block.header.Header.body_size + 256) ()
  in
  encode_block w b;
  Codec.Writer.contents w

(* A standalone block is never pruned: only a chain or snapshot image
   carries header-only rounds, so a header claiming transactions with
   none behind it is rejected here rather than read as pruned. *)
let block_of_string s =
  let r = Codec.Reader.of_string s in
  match decode_block r with
  | Ok _ when not (Codec.Reader.at_end r) -> Error "trailing bytes"
  | Ok b
    when Array.length b.Block.txs = 0 && b.Block.header.Header.tx_count > 0 ->
      Error "header-only block"
  | result -> result

let write_chain_header w ~length ~pruned_below =
  Codec.Writer.raw w magic;
  Codec.Writer.varint w length;
  Codec.Writer.varint w pruned_below

(* A whole chain is one sealed {!Fl_wire.Envelope}: the CRC makes any
   single-byte corruption detectable even where the structural decode
   could not see it (a flipped bit inside a synthetic transaction's
   padding is otherwise discarded by [decode_tx] and reconstructed as
   zeros). The magic stays in the body as a format fingerprint. *)
let encode_chain store =
  Envelope.seal ~tag:0 (fun w ->
      write_chain_header w ~length:(Store.length store)
        ~pruned_below:(Store.pruned_below store);
      Store.iter store (fun b -> encode_block w b))

let decode_chain p =
  match
    let tag, r = Envelope.open_ p in
    if tag <> 0 then Error "chain: bad tag"
    else begin
      (* in-place magic check: no 8-byte copy per decode *)
      Codec.Reader.expect_raw r magic;
      let len = Codec.Reader.varint r in
      let pruned_below = Codec.Reader.varint r in
      let store = Store.create () in
      let rec go i =
        if i >= len then
          if Codec.Reader.at_end r then Ok store else Error "trailing bytes"
        else
          match decode_block r with
          | Error e -> Error (Printf.sprintf "block %d: %s" i e)
          | Ok b -> (
              (* Pruned bodies cannot be re-checked; links always are. *)
              let check_body = i >= pruned_below in
              match Store.append ~check_body store b with
              | Ok () -> go (i + 1)
              | Error e ->
                  Error (Format.asprintf "block %d: %a" i Store.pp_error e))
      in
      match go 0 with
      | Ok store ->
          Store.prune store ~keep_from:pruned_below;
          Ok store
      | Error e -> Error e
    end
  with
  | result -> result
  | exception Codec.Reader.Underflow -> Error "truncated chain"
  | exception Codec.Malformed e -> Error e

let save store ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Sparse.to_string (encode_chain store)))

let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          decode_chain (Sparse.of_string (really_input_string ic len)))
