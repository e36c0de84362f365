open Fl_sim
open Fl_net
open Fl_chain
open Fl_wire
open Fl_consensus

type qc = { qc_view : int; qc_hash : string }

type hs_block = {
  b_view : int;
  b_parent : string;
  b_justify : qc;
  b_txs : Tx.t array;
  b_hash : string;
  b_created : Time.t;
}

type msg =
  | Proposal of hs_block
  | Vote of { view : int; hash : string }
  | New_view of { view : int; qc : qc }

(* HotStuff's own top-level codec: like every protocol, it travels the
   network as framed bytes and the NIC is charged the encoding's
   length. *)
let write_qc w q =
  Codec.Writer.varint w q.qc_view;
  Codec.Writer.bytes w q.qc_hash

let read_qc r =
  let qc_view = Codec.Reader.varint r in
  let qc_hash = Codec.Reader.bytes r in
  { qc_view; qc_hash }

let write_block w b =
  Codec.Writer.varint w b.b_view;
  Codec.Writer.bytes w b.b_parent;
  write_qc w b.b_justify;
  Serial.encode_txs w b.b_txs;
  Codec.Writer.bytes w b.b_hash;
  Codec.Writer.varint w b.b_created

let read_block r =
  let b_view = Codec.Reader.varint r in
  let b_parent = Codec.Reader.bytes r in
  let b_justify = read_qc r in
  let b_txs = Serial.decode_txs r in
  let b_hash = Codec.Reader.bytes r in
  let b_created = Codec.Reader.varint r in
  { b_view; b_parent; b_justify; b_txs; b_hash; b_created }

let encode = function
  | Proposal b -> Envelope.seal ~tag:0 (fun w -> write_block w b)
  | Vote { view; hash } ->
      Envelope.seal ~tag:1 (fun w ->
          Codec.Writer.varint w view;
          Codec.Writer.bytes w hash)
  | New_view { view; qc } ->
      Envelope.seal ~tag:2 (fun w ->
          Codec.Writer.varint w view;
          write_qc w qc)

let decode s =
  Msg_codec.decode_frame
    (fun tag r ->
      match tag with
      | 0 -> Proposal (read_block r)
      | 1 ->
          let view = Codec.Reader.varint r in
          let hash = Codec.Reader.bytes r in
          Vote { view; hash }
      | 2 ->
          let view = Codec.Reader.varint r in
          let qc = read_qc r in
          New_view { view; qc }
      | t -> raise (Codec.Malformed (Printf.sprintf "hotstuff: tag %d" t)))
    s

let genesis_hash = Fl_crypto.Sha256.digest "hotstuff-genesis"
let genesis_qc = { qc_view = 0; qc_hash = genesis_hash }

let block_hash ~view ~parent ~body =
  Fl_crypto.Sha256.digest (Printf.sprintf "%d" view ^ parent ^ body)

(* One replica. *)
type replica = {
  id : int;
  n : int;
  f : int;
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  cost : Fl_crypto.Cost_model.t;
  cpu : Cpu.t;
  net : msg Net.t;
  batch_size : int;
  tx_size : int;
  mutable view : int;
  mutable last_voted : int;
  mutable high_qc : qc;
  mutable locked : qc;
  blocks : (string, hs_block) Hashtbl.t;
  votes : (int * string, unit) Tally.t;
  new_views : (int, unit) Tally.t;
  proposed : (int, unit) Hashtbl.t;
  mutable committed : string list;  (* newest first *)
  committed_set : (string, unit) Hashtbl.t;
  mutable committed_count : int;
  mutable deadline : Time.t;
  mutable timeouts : int;
  mutable next_tx : int;
  base_timeout : Time.t;
}

let leader_of r view = view mod r.n
let quorum r = r.n - r.f

let charge_sign r =
  Cpu.charge r.cpu (int_of_float r.cost.Fl_crypto.Cost_model.sign_const_ns)

let charge_verify r =
  Cpu.charge r.cpu (int_of_float r.cost.Fl_crypto.Cost_model.verify_const_ns)

let charge_hash r ~bytes =
  Cpu.charge r.cpu (Fl_crypto.Cost_model.hash_cost r.cost ~bytes)

let body_bytes txs = Array.fold_left (fun acc tx -> acc + tx.Tx.size) 0 txs

let reset_deadline r =
  let t = r.base_timeout * (1 lsl min 8 r.timeouts) in
  r.deadline <- Engine.now r.engine + t

let synth_block r ~view ~parent ~justify =
  let txs =
    Array.init r.batch_size (fun _ ->
        let id = (r.id * 1_000_000_007) + r.next_tx in
        r.next_tx <- r.next_tx + 1;
        Tx.create ~id ~size:r.tx_size)
  in
  charge_hash r ~bytes:(body_bytes txs);
  charge_sign r;
  Fl_metrics.Recorder.incr r.recorder "signatures";
  let body = Block.body_hash txs in
  { b_view = view;
    b_parent = parent;
    b_justify = justify;
    b_txs = txs;
    b_hash = block_hash ~view ~parent ~body;
    b_created = Engine.now r.engine }

(* Commit the ancestor chain ending at [b], oldest-first delivery. *)
let commit_chain r b =
  let rec collect h acc =
    if String.equal h genesis_hash then acc
    else if Hashtbl.mem r.committed_set h then acc
    else
      match Hashtbl.find_opt r.blocks h with
      | Some blk -> collect blk.b_parent (blk :: acc)
      | None -> acc
  in
  let chain = collect b.b_hash [] in
  List.iter
    (fun blk ->
      r.committed <- blk.b_hash :: r.committed;
      Hashtbl.replace r.committed_set blk.b_hash ();
      r.committed_count <- r.committed_count + 1;
      let now = Engine.now r.engine in
      Fl_metrics.Recorder.incr r.recorder "blocks_delivered";
      Fl_metrics.Recorder.add r.recorder "txs_delivered"
        (Array.length blk.b_txs);
      Fl_metrics.Recorder.observe r.recorder "latency_e2e"
        (max 0 (now - blk.b_created)))
    chain

(* Three-chain commit rule: a QC for b, whose justify chain shows two
   more consecutive-view QC links, commits the great-grandparent link;
   the middle link becomes the lock. *)
let check_commit r (q : qc) =
  match Hashtbl.find_opt r.blocks q.qc_hash with
  | None -> ()
  | Some b -> (
      match Hashtbl.find_opt r.blocks b.b_parent with
      | Some b1 when b.b_justify.qc_view = b1.b_view ->
          if b1.b_view > r.locked.qc_view then r.locked <- b.b_justify;
          (match Hashtbl.find_opt r.blocks b1.b_parent with
          | Some b2
            when b1.b_justify.qc_view = b2.b_view
                 && b.b_view = b1.b_view + 1
                 && b1.b_view = b2.b_view + 1 ->
              commit_chain r b2
          | _ -> ())
      | _ -> ())

let update_high_qc r (q : qc) =
  if q.qc_view > r.high_qc.qc_view then r.high_qc <- q;
  check_commit r q

let enter_view r v =
  if v > r.view then begin
    r.view <- v;
    r.timeouts <- 0;
    reset_deadline r
  end

let propose r ~view =
  if not (Hashtbl.mem r.proposed view) then begin
    Hashtbl.add r.proposed view ();
    let parent_hash = r.high_qc.qc_hash in
    let b = synth_block r ~view ~parent:parent_hash ~justify:r.high_qc in
    Fl_metrics.Recorder.incr r.recorder "hs_proposals";
    (* Deliberately not stored here: the leader is a replica too and
       must process (and vote for) its own proposal via self-delivery —
       pre-inserting the block would make the handler treat it as a
       duplicate and lose the leader's vote, which is fatal when the
       quorum is all n. *)
    Net.broadcast r.net ~src:r.id (encode (Proposal b))
  end

let handle r (src, m) =
  match m with
  | Proposal b ->
      if src = leader_of r b.b_view && not (Hashtbl.mem r.blocks b.b_hash)
      then begin
        (* verify the aggregated justify QC and the block body *)
        charge_verify r;
        charge_hash r ~bytes:(body_bytes b.b_txs);
        Hashtbl.replace r.blocks b.b_hash b;
        update_high_qc r b.b_justify;
        if
          b.b_view > r.last_voted
          && b.b_justify.qc_view >= r.locked.qc_view
        then begin
          r.last_voted <- b.b_view;
          enter_view r b.b_view;
          reset_deadline r;
          charge_sign r;
          Fl_metrics.Recorder.incr r.recorder "signatures";
          Net.send r.net ~src:r.id
            ~dst:(leader_of r (b.b_view + 1))
            (encode (Vote { view = b.b_view; hash = b.b_hash }))
        end
      end
  | Vote { view; hash } ->
      if leader_of r (view + 1) = r.id then begin
        charge_verify r;
        if
          Tally.add r.votes (view, hash) ~src ()
          && Tally.count r.votes (view, hash) = quorum r
        then begin
          let q = { qc_view = view; qc_hash = hash } in
          update_high_qc r q;
          enter_view r (view + 1);
          propose r ~view:(view + 1)
        end
      end
  | New_view { view; qc } ->
      update_high_qc r qc;
      if leader_of r view = r.id then
        if
          Tally.add r.new_views view ~src ()
          && Tally.count r.new_views view = quorum r
        then begin
          enter_view r view;
          propose r ~view
        end

let pacemaker r =
  let tick = r.base_timeout / 4 in
  let rec loop () =
    Fiber.sleep r.engine tick;
    if Engine.now r.engine > r.deadline then begin
      r.timeouts <- r.timeouts + 1;
      r.view <- r.view + 1;
      Fl_metrics.Recorder.incr r.recorder "hs_timeouts";
      reset_deadline r;
      Net.send r.net ~src:r.id ~dst:(leader_of r r.view)
        (encode (New_view { view = r.view; qc = r.high_qc }))
    end;
    loop ()
  in
  loop ()

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  n : int;
  f : int;
  replicas : replica option array;
}

let create ?(seed = 42) ?(latency = Latency.single_dc)
    ?(cost = Fl_crypto.Cost_model.default) ?(cores = 4)
    ?(bandwidth_bps = Nic.ten_gbps) ?(crashed = fun _ -> false) ~n ~f
    ~batch_size ~tx_size () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Fl_metrics.Recorder.create engine in
  let nics = Array.init n (fun _ -> Nic.create ~bandwidth_bps) in
  let net =
    Net.create engine (Rng.named_split rng "net") ~nics ~latency ~decode
  in
  let replicas =
    Array.init n (fun i ->
        if crashed i then None
        else
          Some
            { id = i;
              n;
              f;
              engine;
              recorder;
              cost;
              cpu = Cpu.create engine ~cores;
              net;
              batch_size;
              tx_size;
              view = 0;
              last_voted = 0;
              high_qc = genesis_qc;
              locked = genesis_qc;
              blocks = Hashtbl.create 256;
              votes = Tally.create 64;
              new_views = Tally.create 16;
              proposed = Hashtbl.create 64;
              committed = [];
              committed_set = Hashtbl.create 1024;
              committed_count = 0;
              deadline = 0;
              timeouts = 0;
              next_tx = 0;
              base_timeout = Time.ms 100 })
  in
  { engine; recorder; n; f; replicas }

let start t =
  Array.iter
    (function
      | None -> ()
      | Some r ->
          reset_deadline r;
          (* bootstrap: everyone nominates the first leader *)
          Net.send r.net ~src:r.id ~dst:(leader_of r 1)
            (encode (New_view { view = 1; qc = genesis_qc }));
          Fiber.spawn r.engine (fun () ->
              while true do
                let src, frame = Mailbox.recv (Net.inbox r.net r.id) in
                match Net.Frame.msg frame with
                | Some m -> handle r (src, m)
                | None ->
                    Fl_metrics.Recorder.incr r.recorder "decode_errors"
              done);
          Fiber.spawn r.engine (fun () -> pacemaker r))
    t.replicas

let run ?until t = Engine.run ?until t.engine

let committed_blocks t =
  match t.replicas.(0) with
  | Some r -> r.committed_count
  | None -> (
      match Array.find_opt (fun r -> r <> None) t.replicas with
      | Some (Some r) -> r.committed_count
      | _ -> 0)

let chains_agree t =
  let seqs =
    Array.to_list t.replicas
    |> List.filter_map (fun r ->
           match r with Some r -> Some (List.rev r.committed) | None -> None)
  in
  match seqs with
  | [] -> true
  | first :: rest ->
      List.for_all
        (fun s ->
          let rec prefix_eq a b =
            match (a, b) with
            | [], _ | _, [] -> true
            | x :: xs, y :: ys -> String.equal x y && prefix_eq xs ys
          in
          prefix_eq first s)
        rest
