open Fl_wire

type t = {
  round : int;
  proposer : int;
  prev_hash : string;
  body_hash : string;
  tx_count : int;
  body_size : int;
  enc : string;
  hash : string;
}

let make ~round ~proposer ~prev_hash ~body_hash ~tx_count ~body_size =
  let w = Codec.Writer.create ~capacity:96 () in
  Codec.Writer.u64 w round;
  Codec.Writer.u32 w proposer;
  Codec.Writer.raw w prev_hash;
  Codec.Writer.raw w body_hash;
  Codec.Writer.u32 w tx_count;
  Codec.Writer.u64 w body_size;
  let enc = Codec.Writer.contents w in
  { round; proposer; prev_hash; body_hash; tx_count; body_size; enc;
    hash = Fl_crypto.Sha256.digest enc }

let encode t = t.enc
let hash t = t.hash

let equal a b =
  a.round = b.round && a.proposer = b.proposer
  && String.equal a.prev_hash b.prev_hash
  && String.equal a.body_hash b.body_hash
  && a.tx_count = b.tx_count && a.body_size = b.body_size

let pp fmt t =
  Format.fprintf fmt "header{r=%d p=%d prev=%s body=%s txs=%d}" t.round
    t.proposer
    (Fl_crypto.Hex.short t.prev_hash)
    (Fl_crypto.Hex.short t.body_hash)
    t.tx_count
