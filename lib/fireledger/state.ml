open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus

type behavior = Honest | Equivocator

type block_times = { a : Time.t; b : Time.t; c : Time.t; d : Time.t }

type output = {
  on_tentative : round:int -> Block.t -> unit;
  on_definite : round:int -> Block.t -> times:block_times -> unit;
  on_recovery : round:int -> rescinded:int -> unit;
  on_evidence : Types.evidence -> unit;
  on_epoch : Epoch.t -> unit;
  on_transfer : upto:int -> chunks:int -> retries:int -> unit;
}

let null_output =
  { on_tentative = (fun ~round:_ _ -> ());
    on_definite = (fun ~round:_ _ ~times:_ -> ());
    on_recovery = (fun ~round:_ ~rescinded:_ -> ());
    on_evidence = (fun _ -> ());
    on_epoch = (fun _ -> ());
    on_transfer = (fun ~upto:_ ~chunks:_ ~retries:_ -> ()) }

type pending_times = { pt_a : Time.t; pt_b : Time.t; pt_c : Time.t }

type t = {
  env : Env.t;
  config : Config.t;
  behavior : behavior;
  valid : Block.t -> bool;
  output : output;
  store : Store.t;
  mempool : Mempool.t;
  timer : Timer.t;
  detector : Detector.t;
  rotation : Rotation.t;
  bodies : (string, Tx.t array) Hashtbl.t;
  body_arrival : (string, Time.t) Hashtbl.t;
  stash : (int, Types.proposal * Time.t) Hashtbl.t;
  fetched : (int, Types.signed_header * Tx.t array) Hashtbl.t;
  signed_headers : (int, Types.signed_header) Hashtbl.t;
  my_signed : (int * string, Types.signed_header * Tx.t array) Hashtbl.t;
  evidence_log : (string, Types.evidence) Hashtbl.t;
  mutable pulse : unit Ivar.t;
  prepared : (Tx.t array * string * Time.t) Queue.t;
  own_in_flight : (string, unit) Hashtbl.t;
  pool_txs : (string, (Tx.t * int) array) Hashtbl.t;
  mutable round : int;
  mutable attempt : int;
  mutable era : int;
  mutable proposer : int;
  mutable full_mode : bool;
  mutable definite_upto : int;
  open_obbcs : (int * int * int, Msg.ob_payload Obbc.t) Hashtbl.t;
  times : (int, pending_times) Hashtbl.t;
  mutable abort : unit Ivar.t;
  mutable pending_proofs : Types.proof list;
  handled_recoveries : (int, unit) Hashtbl.t;
  version_boxes : (int, Types.version Mailbox.t) Hashtbl.t;
  mutable rb : Types.proof Fl_broadcast.Bracha.t option;
  mutable ab : Types.version Pbft.t option;
  mutable evd : Types.evidence Fl_broadcast.Bracha.t option;
  mutable rb_tag : int;
  mutable evd_tag : int;
  mutable next_tx_id : int;
  halves : int list * int list;
  mutable stopped : bool;
  genesis_epoch : Epoch.t;
  mutable epochs : Epoch.t list;
  mutable active_epoch : Epoch.t;
  mutable was_member : bool;
  mutable handoff_done : bool;
  mutable reconfig_fibers : bool;
  mutable wedged : bool;
  mutable snap_cache : (int * string) option;
  persist : Fl_persist.Node.t option;
  mutable boot_delay : Time.t;
}

let n_of t = t.config.Config.n
let f_of t = t.config.Config.f

(* ---------- membership epochs ---------- *)

(* The epoch governing [round]: the newest scheduled epoch whose
   activation is at or below it. [t.epochs] is newest-first and always
   ends in the genesis epoch (activation 0). *)
let epoch_at t round =
  let rec go = function
    | [] -> t.genesis_epoch
    | e :: rest -> if e.Epoch.activation <= round then e else go rest
  in
  go t.epochs

(* Epochs are scheduled from definite blocks with a fixed lag of
   f + 3 rounds, one past the definiteness horizon (f + 2) — so the
   local schedule is provably complete for every round at or below
   this bound, and incomplete knowledge is only possible beyond it. *)
let membership_known t ~round = round <= t.definite_upto + f_of t + 3

let is_member_at t ~round id = Epoch.is_member (epoch_at t round) id

(* Quorum parameters of an epoch. Full-universe epochs use the
   configured (n, f) verbatim (a config may pin a non-default f);
   partial epochs re-derive them from the member count, never
   exceeding the configured Byzantine budget. *)
let epoch_quorum_params t e =
  if Epoch.n e = n_of t then (n_of t, f_of t)
  else (Epoch.n e, min (f_of t) (Epoch.f e))

(* ---------- environment shorthands ---------- *)

let me t = t.env.Env.me
let engine t = t.env.Env.engine
let recorder t = t.env.Env.recorder
let now t = Engine.now (engine t)
let incr_c t name = Fl_metrics.Recorder.incr (recorder t) name

let obs_span t ~name ?round ?args ~t_begin ~t_end () =
  Fl_obs.Obs.span t.env.Env.obs ~cat:"fireledger" ~name ~node:(me t)
    ~worker:t.env.Env.worker ?round ?args ~t_begin ~t_end ()

let obs_instant t ~name ?round ?args () =
  Fl_obs.Obs.instant t.env.Env.obs ~cat:"fireledger" ~name ~node:(me t)
    ~worker:t.env.Env.worker ?round ?args ~at:(now t) ()

let charge_hash t ~bytes =
  Cpu.charge t.env.Env.cpu
    (Fl_crypto.Cost_model.hash_cost t.env.Env.cost ~bytes)

let charge_sign t =
  Cpu.charge t.env.Env.cpu
    (int_of_float t.env.Env.cost.Fl_crypto.Cost_model.sign_const_ns)

let charge_verify t =
  Cpu.charge t.env.Env.cpu
    (int_of_float t.env.Env.cost.Fl_crypto.Cost_model.verify_const_ns)

let body_bytes txs = Array.fold_left (fun acc tx -> acc + tx.Tx.size) 0 txs

let send t ~dst m =
  Net.send t.env.Env.net ~src:(me t) ~dst (Msg.encode m)

let bcast t m = Net.broadcast t.env.Env.net ~src:(me t) (Msg.encode m)

let multicast t ~dsts m =
  Net.multicast t.env.Env.net ~src:(me t) ~dsts (Msg.encode m)

(* ---------- arrivals and chain lookups ---------- *)

let pulse_fill t = ignore (Ivar.try_fill t.pulse ())

(* Empty blocks all commit to the same body hash; synthesising the
   empty body instead of tracking it in [bodies] avoids the shared
   entry being dropped when one of the identical blocks is appended.
   Non-empty bodies are unique (transaction ids are node-prefixed). *)
let empty_body_hash = Block.body_hash [||]

let find_body t hash =
  if String.equal hash empty_body_hash then Some [||]
  else Hashtbl.find_opt t.bodies hash

(* Last [count] proposers of the stored chain, oldest first. *)
let recent_proposers t count =
  let len = Store.length t.store in
  let rec go r acc =
    if r >= len then List.rev acc
    else
      match Store.get t.store r with
      | Some b -> go (r + 1) (b.Block.header.Header.proposer :: acc)
      | None -> List.rev acc
  in
  go (max 0 (len - count)) []
