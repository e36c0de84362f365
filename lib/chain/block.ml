type t = { header : Header.t; txs : Tx.t array }

let genesis_hash = Fl_crypto.Sha256.digest "fireledger-genesis"

let body_hash txs =
  let buf = Bytes.create 16 in
  Fl_crypto.Sha256.digest_with (fun ctx ->
      Array.iter
        (fun tx ->
          if tx.Tx.payload = "" then begin
            (* synthetic commitment packed in place: id + size *)
            Bytes.set_int64_le buf 0 (Int64.of_int tx.Tx.id);
            Bytes.set_int64_le buf 8 (Int64.of_int tx.Tx.size);
            Fl_crypto.Sha256.feed_bytes ctx buf
          end
          else Fl_crypto.Sha256.feed_string ctx (Tx.digest tx))
        txs)

let create ~round ~proposer ~prev_hash txs =
  let body_size = Array.fold_left (fun acc tx -> acc + tx.Tx.size) 0 txs in
  { header =
      { Header.round;
        proposer;
        prev_hash;
        body_hash = body_hash txs;
        tx_count = Array.length txs;
        body_size };
    txs }

let hash t = Header.hash t.header

let body_matches t =
  t.header.Header.tx_count = Array.length t.txs
  && String.equal t.header.Header.body_hash (body_hash t.txs)

let equal a b =
  Header.equal a.header b.header
  && Array.length a.txs = Array.length b.txs
  && Array.for_all2 Tx.equal a.txs b.txs
