open Fl_sim

type t = {
  ns_per_byte : float;
  mutable tx_free : Time.t;
  mutable rx_free : Time.t;
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

let ten_gbps = 10e9

let create ~bandwidth_bps =
  if bandwidth_bps <= 0.0 then invalid_arg "Nic.create: bandwidth";
  { ns_per_byte = 8.0 *. 1e9 /. bandwidth_bps;
    tx_free = 0;
    rx_free = 0;
    bytes_sent = 0;
    bytes_received = 0 }

let serialization t bytes =
  max 1 (int_of_float (t.ns_per_byte *. float_of_int bytes))

let tx_backlog t ~now = max 0 (t.tx_free - now)

let tx_finish t ~now ~bytes =
  let start = max now t.tx_free in
  let finish = start + serialization t bytes in
  t.tx_free <- finish;
  t.bytes_sent <- t.bytes_sent + bytes;
  finish

let rx_finish t ~arrival ~bytes =
  let start = max arrival t.rx_free in
  let finish = start + serialization t bytes in
  t.rx_free <- finish;
  t.bytes_received <- t.bytes_received + bytes;
  finish

let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received
