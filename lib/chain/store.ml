type t = {
  mutable blocks : Block.t array;  (* dense, index = round *)
  mutable len : int;
  mutable hashes : string array;   (* memoised header hashes *)
  mutable pruned_below : int;      (* bodies dropped for rounds < this *)
}

type error =
  | Wrong_round of { expected : int; got : int }
  | Broken_link
  | Body_mismatch

let pp_error fmt = function
  | Wrong_round { expected; got } ->
      Format.fprintf fmt "wrong round: expected %d, got %d" expected got
  | Broken_link -> Format.fprintf fmt "prev_hash does not match chain tip"
  | Body_mismatch -> Format.fprintf fmt "body does not match header commitment"

let create () = { blocks = [||]; len = 0; hashes = [||]; pruned_below = 0 }
let length t = t.len

let last_hash t =
  if t.len = 0 then Block.genesis_hash else t.hashes.(t.len - 1)

let get t round =
  if round < 0 || round >= t.len then None else Some t.blocks.(round)

let last t = if t.len = 0 then None else Some t.blocks.(t.len - 1)

let hash t round =
  if round < 0 || round >= t.len then None else Some t.hashes.(round)

let ensure_capacity t block =
  if t.len = Array.length t.blocks then begin
    let cap = max 64 (2 * Array.length t.blocks) in
    let blocks = Array.make cap block in
    Array.blit t.blocks 0 blocks 0 t.len;
    t.blocks <- blocks;
    let hashes = Array.make cap "" in
    Array.blit t.hashes 0 hashes 0 t.len;
    t.hashes <- hashes
  end

let append ?(check_body = true) t block =
  let round = block.Block.header.Header.round in
  if round <> t.len then Error (Wrong_round { expected = t.len; got = round })
  else if not (String.equal block.Block.header.Header.prev_hash (last_hash t))
  then Error Broken_link
  else if check_body && not (Block.body_matches block) then
    Error Body_mismatch
  else begin
    ensure_capacity t block;
    t.blocks.(t.len) <- block;
    t.hashes.(t.len) <- Block.hash block;
    t.len <- t.len + 1;
    Ok ()
  end

let sub t ~from =
  let from = max 0 from in
  let rec go i acc = if i < from then acc else go (i - 1) (t.blocks.(i) :: acc) in
  if from >= t.len then [] else go (t.len - 1) []

let replace_suffix t ~from blocks =
  if from < 0 || from > t.len then
    Error (Wrong_round { expected = t.len; got = from })
  else begin
    let saved_len = t.len in
    t.len <- from;
    let rec go = function
      | [] -> Ok ()
      | b :: rest -> (
          match append t b with
          | Ok () -> go rest
          | Error e ->
              (* Roll back: the old blocks are still physically present
                 beyond [t.len] unless overwritten; overwritten rounds
                 mean the caller supplied a broken version, which the
                 recovery protocol validates beforehand. *)
              t.len <- max t.len saved_len;
              Error e)
    in
    go blocks
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f t.blocks.(i)
  done

let prune t ~keep_from =
  let keep_from = max 0 (min keep_from t.len) in
  for i = t.pruned_below to keep_from - 1 do
    let b = t.blocks.(i) in
    if Array.length b.Block.txs > 0 then
      t.blocks.(i) <- { b with Block.txs = [||] }
  done;
  if keep_from > t.pruned_below then t.pruned_below <- keep_from

let pruned_below t = t.pruned_below

let check_integrity t =
  let ok = ref true in
  let prev = ref Block.genesis_hash in
  for i = 0 to t.len - 1 do
    let b = t.blocks.(i) in
    if
      b.Block.header.Header.round <> i
      || (not (String.equal b.Block.header.Header.prev_hash !prev))
      || ((i >= t.pruned_below) && not (Block.body_matches b))
    then ok := false;
    prev := t.hashes.(i)
  done;
  !ok
