(* Transaction conservation at one loaded node of a FireLedger
   cluster: every transaction the node's pool admitted is finalized
   (in a block the node saw become definite), still pooled, riding one
   of the node's own not-yet-definite proposals, or explicitly evicted
   — exactly once. The ledger is passive (it only reads admission
   results and definite blocks), so attaching it leaves the simulated
   run unchanged. *)

open Fl_sim
open Fl_fireledger

type t = {
  node : int;
  admitted : (int, unit) Hashtbl.t;
  finalized : (int, unit) Hashtbl.t;
}

let create ~node =
  { node; admitted = Hashtbl.create 256; finalized = Hashtbl.create 256 }

(* Forget everything admitted so far — for a cold restart of the
   loaded node, which legitimately loses its volatile pool. *)
let reset t =
  Hashtbl.reset t.admitted;
  Hashtbl.reset t.finalized

let output t i =
  if i <> t.node then Instance.null_output
  else
    { Instance.null_output with
      Instance.on_definite =
        (fun ~round:_ b ~times:_ ->
          Array.iter
            (fun (tx : Fl_chain.Tx.t) ->
              if Hashtbl.mem t.admitted tx.Fl_chain.Tx.id then
                Hashtbl.replace t.finalized tx.Fl_chain.Tx.id ())
            b.Fl_chain.Block.txs) }

(* Open-loop client load: admit a paying transaction into the node's
   pool every [period]. The instance is resolved at each tick, so the
   load survives cold restarts replacing the instance in place. *)
let attach_load t c ~period =
  let seq = ref 0 in
  Fiber.spawn c.Cluster.engine (fun () ->
      while true do
        incr seq;
        let id = 500_000 + !seq in
        if
          Fl_chain.Mempool.admit
            (Instance.mempool c.Cluster.instances.(t.node))
            (Fl_chain.Tx.create ~id ~size:32)
            ~fee:1
        then Hashtbl.replace t.admitted id ();
        Fiber.sleep c.Cluster.engine period
      done)

let check t c =
  let inst = c.Cluster.instances.(t.node) in
  let pool = Instance.mempool inst in
  let pooled = Fl_chain.Mempool.size pool in
  let inflight = List.length (Instance.inflight_client_txs inst) in
  let evicted = Fl_chain.Mempool.evicted_total pool in
  let finalized = Hashtbl.length t.finalized in
  let admitted = Hashtbl.length t.admitted in
  Alcotest.(check bool) "load was admitted" true (admitted > 0);
  Alcotest.(check int)
    (Printf.sprintf
       "admitted = finalized %d + pooled %d + in flight %d + evicted %d"
       finalized pooled inflight evicted)
    admitted
    (finalized + pooled + inflight + evicted)
