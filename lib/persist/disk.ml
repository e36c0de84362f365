open Fl_sim

type profile = {
  write_lat : Time.t;
  fsync_lat : Time.t;
  bandwidth_bps : float;
}

let nvme =
  { write_lat = Time.us 15;
    fsync_lat = Time.us 120;
    bandwidth_bps = 16e9 (* 2 GB/s *) }

let ssd =
  { write_lat = Time.us 60;
    fsync_lat = Time.us 600;
    bandwidth_bps = 4e9 (* 500 MB/s *) }

let hdd =
  { write_lat = Time.ms 1;
    fsync_lat = Time.ms 8;
    bandwidth_bps = 1.2e9 (* 150 MB/s *) }

let profile_of_string = function
  | "nvme" -> Some nvme
  | "ssd" -> Some ssd
  | "hdd" -> Some hdd
  | _ -> None

type t = {
  engine : Engine.t;
  profile : profile;
  ns_per_byte : float;
  node : int;
  obs : Fl_obs.Obs.t option;
  mutable busy_until : Time.t;  (* queue-drain cursor, like Nic.tx_free *)
  mutable stall_until : Time.t;  (* fsyncs cannot complete before this *)
  mutable lost : bool;
  mutable bytes_written : int;
  mutable fsyncs : int;
}

let create engine ?obs ?(node = -1) ~profile () =
  if profile.bandwidth_bps <= 0.0 then invalid_arg "Disk.create: bandwidth";
  { engine;
    profile;
    ns_per_byte = 8.0 *. 1e9 /. profile.bandwidth_bps;
    node;
    obs;
    busy_until = 0;
    stall_until = 0;
    lost = false;
    bytes_written = 0;
    fsyncs = 0 }

let serialization t bytes =
  max 1 (int_of_float (t.ns_per_byte *. float_of_int bytes))

(* Enqueue a write of [bytes]; returns the device-cache completion
   time. Purely analytic — no engine event, no blocking — so the hot
   path pays nothing until it needs durability. *)
let write t ~bytes =
  let now = Engine.now t.engine in
  let start = max now t.busy_until in
  let finish = start + t.profile.write_lat + serialization t bytes in
  t.busy_until <- finish;
  t.bytes_written <- t.bytes_written + bytes;
  finish

(* Block the calling fiber until all writes issued so far are durable:
   queue drain, then the flush itself, deferred past any injected
   stall window. *)
let fsync ?(name = "fsync") t =
  let now = Engine.now t.engine in
  let finish =
    max (max now t.busy_until) t.stall_until + t.profile.fsync_lat
  in
  t.busy_until <- finish;
  t.fsyncs <- t.fsyncs + 1;
  if finish > now then Fiber.sleep t.engine (finish - now);
  Fl_obs.Obs.span t.obs ~cat:"disk" ~name ~node:t.node ~t_begin:now
    ~t_end:finish ()

(* Analytic sequential-read cost of [bytes] off this device — used to
   model the recovery boot scan (snapshot load + WAL replay). Same
   bandwidth term as writes plus one setup latency. *)
let read_delay t ~bytes = t.profile.write_lat + serialization t bytes

let set_stall t ~until = t.stall_until <- max t.stall_until until
let lose t = t.lost <- true
let lost t = t.lost

let bytes_written t = t.bytes_written
let fsyncs t = t.fsyncs
