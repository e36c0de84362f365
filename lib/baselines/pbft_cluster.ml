open Fl_sim
open Fl_net
open Fl_chain
open Fl_consensus
open Fl_wire

(* The baseline's top-level codec: PBFT's in-body codec under a
   one-tag envelope, with wire-true transactions as payloads. *)
let encode_msg m =
  Envelope.seal ~tag:0 (fun w -> Pbft.write_msg Serial.encode_tx w m)

let decode_msg s =
  Msg_codec.decode_frame
    (fun tag r ->
      if tag <> 0 then
        raise (Codec.Malformed (Printf.sprintf "pbft_cluster: tag %d" tag));
      Pbft.read_msg Serial.decode_tx r)
    s

type node = {
  id : int;
  replica : Tx.t Pbft.t;
  mutable inflight : int;
  mutable next_tx : int;
  submit_times : (string, Time.t) Hashtbl.t;
  mutable delivered : int;
}

type t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  n : int;
  f : int;
  nodes_ : node option array;
  window : int;
  tx_size : int;
}

let tx_digest = Tx.digest

let create ?(seed = 42) ?(latency = Latency.single_dc)
    ?(cost = Fl_crypto.Cost_model.default) ?(cores = 4)
    ?(bandwidth_bps = Nic.ten_gbps) ~n ~f ~batch_size ~tx_size () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let recorder = Fl_metrics.Recorder.create engine in
  let nics = Array.init n (fun _ -> Nic.create ~bandwidth_bps) in
  let net =
    Net.create engine (Rng.named_split rng "net") ~nics ~latency
      ~decode:decode_msg
  in
  let config =
    { (Pbft.default_config ~payload_digest:tx_digest) with
      Pbft.max_batch = batch_size;
      window = 8;
      base_timeout = Time.ms 300;
      (* Each ordered request pays a per-request processing cost
         (deserialization, MAC vector, request bookkeeping) — ~10 us
         in the JVM — on top of hashing its bytes; without it the
         model is unrealistically lean (see EXPERIMENTS.md). *)
      payload_cpu =
        (fun tx ->
          Time.us 10 + Fl_crypto.Cost_model.hash_cost cost ~bytes:tx.Tx.size) }
  in
  let nodes_ = Array.make n None in
  Array.iteri
    (fun i _ ->
      let hub_key (_ : Tx.t Pbft.msg) = "pbft" in
      let hub =
        Hub.create engine ~inbox:(Net.inbox net i)
          ~on_malformed:(fun ~src:_ ~bytes:_ ->
            Fl_metrics.Recorder.incr recorder "decode_errors")
          ~key:hub_key ()
      in
      let channel =
        Channel.of_hub hub ~key:"pbft" ~net ~self:i ~f ~encode:encode_msg
          ~inj:Fun.id ~prj:Fun.id
      in
      (* The deliver closure reads the node through its slot, which
         is filled right below — delivery can only happen once the
         engine runs. *)
      let replica =
        Pbft.create engine ~recorder ~channel
          ~cpu:(Cpu.create engine ~cores)
          ~config
          ~deliver:(fun ~seq:_ tx ->
            match nodes_.(i) with
            | None -> ()
            | Some node -> (
                let now = Engine.now engine in
                node.delivered <- node.delivered + 1;
                Fl_metrics.Recorder.incr recorder "txs_delivered";
                match Hashtbl.find_opt node.submit_times (tx_digest tx) with
                | Some at ->
                    Hashtbl.remove node.submit_times (tx_digest tx);
                    node.inflight <- node.inflight - 1;
                    Fl_metrics.Recorder.observe recorder "latency_e2e"
                      (max 0 (now - at))
                | None -> ()))
      in
      nodes_.(i) <-
        Some
          { id = i;
            replica;
            inflight = 0;
            next_tx = 0;
            submit_times = Hashtbl.create 64;
            delivered = 0 })
    nodes_;
  (* Closed-loop window: one batch per node. A deeper window inflates
     measured latency with queueing delay rather than protocol delay
     (Little's law), which is not what Figure 17 plots. *)
  { engine; recorder; n; f; nodes_; window = batch_size; tx_size }

(* Closed-loop load generator: keep the window full of our own
   transactions. *)
let feeder t node =
  let rec loop () =
    while node.inflight < t.window do
      let id = (node.id * 1_000_000_007) + node.next_tx in
      node.next_tx <- node.next_tx + 1;
      let tx = Tx.create ~id ~size:t.tx_size in
      Hashtbl.replace node.submit_times (Tx.digest tx)
        (Engine.now t.engine);
      node.inflight <- node.inflight + 1;
      Pbft.submit node.replica tx
    done;
    Fiber.sleep t.engine (Time.ms 1);
    loop ()
  in
  loop ()

let start t =
  Array.iter
    (function
      | None -> ()
      | Some node -> Fiber.spawn t.engine (fun () -> feeder t node))
    t.nodes_

let run ?until t = Engine.run ?until t.engine

let delivered t =
  match t.nodes_.(0) with Some node -> node.delivered | None -> 0
