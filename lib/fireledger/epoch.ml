(* Membership epochs.

   An epoch is a decided membership set: the sorted array of node ids
   (drawn from the fixed simulation universe [0, universe)) that vote,
   propose and rotate. Reconfiguration rides the chain itself: a
   [change] is framed into an ordinary transaction payload; when the
   block carrying it becomes definite at round r, every correct node
   deterministically schedules the successor epoch to activate at
   round r + f + 3 — far enough past the definiteness horizon (f + 2)
   that the schedule entry exists on every correct node before any
   node reaches the activation round. Membership at a round is thus a
   pure function of the definite chain prefix, which is what makes
   receive-side vote filtering and per-epoch quorums safe. *)

open Fl_wire

type change = Join of int | Leave of int

type t = {
  index : int;  (** 0 = genesis; +1 per decided reconfiguration block *)
  activation : int;  (** first round governed by this epoch *)
  members : int array;  (** sorted ascending, node ids in the universe *)
}

let members t = t.members
let n t = Array.length t.members
let f t = (Array.length t.members - 1) / 3

let is_member t id =
  (* members are tiny (<= universe size); linear scan is fine *)
  Array.exists (fun m -> m = id) t.members

let genesis ?members ~universe () =
  if universe <= 0 then invalid_arg "Epoch.genesis: universe";
  let members =
    match members with
    | None -> Array.init universe Fun.id
    | Some ms ->
        let ms = List.sort_uniq compare ms in
        if ms = [] then invalid_arg "Epoch.genesis: empty members";
        List.iter
          (fun m ->
            if m < 0 || m >= universe then
              invalid_arg "Epoch.genesis: member outside universe")
          ms;
        Array.of_list ms
  in
  { index = 0; activation = 0; members }

(* Apply one change to a membership set. Rejections are soft — a
   malformed or stale reconfiguration tx decided on-chain is simply
   ignored (identically by every correct node), never a crash. *)
let apply_change ~universe members change =
  let mem id = Array.exists (fun m -> m = id) members in
  match change with
  | Join id ->
      if id < 0 || id >= universe then Error "join: outside universe"
      else if mem id then Error "join: already a member"
      else
        Ok
          (let ms = Array.append members [| id |] in
           Array.sort compare ms;
           ms)
  | Leave id ->
      if not (mem id) then Error "leave: not a member"
      else if Array.length members <= 2 then Error "leave: cluster too small"
      else Ok (Array.of_list (List.filter (fun m -> m <> id) (Array.to_list members)))

let succeed ~universe t changes ~activation =
  let members =
    List.fold_left
      (fun ms c ->
        match apply_change ~universe ms c with Ok ms' -> ms' | Error _ -> ms)
      t.members changes
  in
  if members = t.members then None
  else Some { index = t.index + 1; activation; members }

(* ---------- reconfiguration transactions ---------- *)

(* Payload framing: magic "FLRC" + version 1 + u8 kind + varint node.
   The 6-byte magic prefix makes [change_of_payload] an O(1) rejection
   for ordinary transactions, so scanning every definite block for
   reconfigurations costs nothing on the common path. *)

let magic = "FLRC\x01"

let encode_change change =
  let w = Codec.Writer.create ~capacity:16 () in
  Codec.Writer.raw w magic;
  (match change with
  | Join id ->
      Codec.Writer.u8 w 0;
      Codec.Writer.varint w id
  | Leave id ->
      Codec.Writer.u8 w 1;
      Codec.Writer.varint w id);
  Codec.Writer.contents w

let change_of_payload payload =
  if String.length payload <= String.length magic then None
  else
    match
      let r = Codec.Reader.of_string payload in
      (* in-place prefix check: ordinary payloads diverge on the first
         bytes and reject without allocating *)
      Codec.Reader.expect_raw r magic;
      let kind = Codec.Reader.u8 r in
      let id = Codec.Reader.varint r in
      if not (Codec.Reader.at_end r) then None
      else match kind with
        | 0 -> Some (Join id)
        | 1 -> Some (Leave id)
        | _ -> None
    with
    | v -> v
    | exception Codec.Reader.Underflow -> None
    | exception Codec.Malformed _ -> None

(* Deterministic id space for reconfiguration txs, far above both the
   synthetic-filler ids and the open-loop client id space. *)
let tx_id_base = 900_000_000

let reconfig_tx change =
  let node = match change with Join id | Leave id -> id in
  let kind = match change with Join _ -> 0 | Leave _ -> 1 in
  Fl_chain.Tx.create_payload
    ~id:(tx_id_base + (kind * 1_000_000) + node)
    (encode_change change)

let changes_of_block (b : Fl_chain.Block.t) =
  Array.fold_right
    (fun tx acc ->
      match change_of_payload tx.Fl_chain.Tx.payload with
      | Some c -> c :: acc
      | None -> acc)
    b.Fl_chain.Block.txs []
