(* Session commands may be delivered out of order relative to their
   sequence numbers: FLO's client manager spreads one session's
   submissions over the least-loaded workers, and the round-robin
   merge interleaves worker streams. Exactly-once therefore needs a
   set, compacted into a contiguous watermark. *)
type session_state = {
  mutable watermark : int;  (* every seq <= watermark is applied *)
  ahead : (int, unit) Hashtbl.t;  (* applied seqs > watermark *)
}

type t = {
  kv_ : Kv.t;
  sessions : (int, session_state) Hashtbl.t;
  mutable applied : int;
  mutable malformed : int;
  mutable replays : int;
}

let create () =
  { kv_ = Kv.create ();
    sessions = Hashtbl.create 16;
    applied = 0;
    malformed = 0;
    replays = 0 }

let session_state t session =
  match Hashtbl.find_opt t.sessions session with
  | Some ss -> ss
  | None ->
      let ss = { watermark = -1; ahead = Hashtbl.create 8 } in
      Hashtbl.add t.sessions session ss;
      ss

let session_seq t ~session =
  match Hashtbl.find_opt t.sessions session with
  | Some ss -> ss.watermark
  | None -> -1

let seen ss seq = seq <= ss.watermark || Hashtbl.mem ss.ahead seq

let mark ss seq =
  Hashtbl.replace ss.ahead seq ();
  while Hashtbl.mem ss.ahead (ss.watermark + 1) do
    Hashtbl.remove ss.ahead (ss.watermark + 1);
    ss.watermark <- ss.watermark + 1
  done

let apply_tx t tx =
  match Command.of_tx tx with
  | None -> t.malformed <- t.malformed + 1
  | Some { Command.session; seq; command } ->
      let ss = session_state t session in
      if seen ss seq then t.replays <- t.replays + 1
      else begin
        mark ss seq;
        ignore (Kv.apply t.kv_ command);
        t.applied <- t.applied + 1
      end

let deliver t (d : Fl_flo.Node.delivery) =
  Array.iter (apply_tx t) d.Fl_flo.Node.block.Fl_chain.Block.txs

let get t key = Kv.get t.kv_ key
let state_hash t = Kv.state_hash t.kv_
let applied t = t.applied
let skipped_malformed t = t.malformed
let skipped_replays t = t.replays

module Client = struct
  type client = {
    session : int;
    node : Fl_flo.Node.t;
    mutable next_seq : int;
    mutable next_id : int;
    mutable submitted : int;
  }

  let create ~session ~node =
    { session; node; next_seq = 0; next_id = 0; submitted = 0 }

  let submit c command =
    let env = { Command.session = c.session; seq = c.next_seq; command } in
    let id = (c.session * 1_000_000) + c.next_id in
    if Fl_flo.Node.submit c.node (Command.to_tx ~id env) then begin
      c.next_seq <- c.next_seq + 1;
      c.next_id <- c.next_id + 1;
      c.submitted <- c.submitted + 1;
      true
    end
    else false

  let submitted c = c.submitted
end
