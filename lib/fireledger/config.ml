open Fl_sim

type t = {
  n : int;
  f : int;
  batch_size : int;
  tx_size : int;
  initial_timeout : Time.t;
  min_timeout : Time.t;
  max_timeout : Time.t;
  fd_enabled : bool;
  gc_window : int;
  prune_window : int;
  max_outstanding : int;
  piggyback : bool;
  separate_bodies : bool;
  fill_blocks : bool;
  permute_proposers : bool;
  permute_period : int;
  dissemination : dissemination;
  pipeline_depth : int;
  mempool_capacity : int;
}

and dissemination = Clique | Gossip of int

let default ~n =
  { n;
    f = (n - 1) / 3;
    batch_size = 1000;
    tx_size = 512;
    initial_timeout = Time.ms 50;
    min_timeout = Time.ms 5;
    max_timeout = Time.s 10;
    fd_enabled = true;
    gc_window = 256;
    prune_window = 1024;
    max_outstanding = 8;
    piggyback = true;
    separate_bodies = true;
    fill_blocks = true;
    permute_proposers = false;
    permute_period = 128;
    dissemination = Clique;
    pipeline_depth = 1;
    mempool_capacity = 1_000_000 }

let validate t =
  if t.n <= 0 then invalid_arg "Config: n must be positive";
  if t.f < 0 || 3 * t.f >= t.n then
    invalid_arg "Config: need 0 <= 3f < n";
  if t.batch_size <= 0 then invalid_arg "Config: batch_size";
  if t.tx_size < 0 then invalid_arg "Config: tx_size";
  if t.min_timeout <= 0 || t.max_timeout < t.initial_timeout then
    invalid_arg "Config: timeouts";
  if t.gc_window < 2 * (t.f + 2) then invalid_arg "Config: gc_window too small";
  if t.permute_period <= 0 then invalid_arg "Config: permute_period";
  (match t.dissemination with
  | Clique -> ()
  | Gossip fanout ->
      if fanout < 1 then invalid_arg "Config: gossip fanout");
  if t.pipeline_depth < 1 then invalid_arg "Config: pipeline_depth";
  if t.mempool_capacity <= 0 then invalid_arg "Config: mempool_capacity"
