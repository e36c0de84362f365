open Fl_sim
open Fl_net
open Fl_wire
open Fl_consensus

type 'a msg =
  | Send of { origin : int; tag : int; payload : 'a }
  | Echo of { origin : int; tag : int; payload : 'a }
  | Ready of { origin : int; tag : int; payload : 'a }
  | Stop

(* In-body codec, parameterized over the payload codec; the carrier
   protocol (WRB's [Rb]) owns the envelope. *)
let write_msg write_payload w m =
  let body tag origin inst payload =
    Codec.Writer.u8 w tag;
    Codec.Writer.varint w origin;
    Codec.Writer.varint w inst;
    write_payload w payload
  in
  match m with
  | Send { origin; tag; payload } -> body 0 origin tag payload
  | Echo { origin; tag; payload } -> body 1 origin tag payload
  | Ready { origin; tag; payload } -> body 2 origin tag payload
  | Stop -> Codec.Writer.u8 w 3

let read_msg read_payload r =
  match Codec.Reader.u8 r with
  | 3 -> Stop
  | t when t <= 2 ->
      let origin = Codec.Reader.varint r in
      let tag = Codec.Reader.varint r in
      let payload = read_payload r in
      (match t with
      | 0 -> Send { origin; tag; payload }
      | 1 -> Echo { origin; tag; payload }
      | _ -> Ready { origin; tag; payload })
  | t -> raise (Codec.Malformed (Printf.sprintf "bracha: tag %d" t))

(* Per (origin, tag) instance. Votes are keyed by payload digest so an
   equivocating origin cannot assemble a quorum across payloads. *)
type 'a instance = {
  mutable echoed : bool;
  mutable readied : bool;
  mutable delivered : bool;
  mutable conflicted : bool;
  echoes : (string, unit) Tally.t;
  readies : (string, unit) Tally.t;
  payloads : (string, 'a) Hashtbl.t;
}

type 'a t = {
  engine : Engine.t;
  recorder : Fl_metrics.Recorder.t;
  channel : 'a msg Channel.t;
  payload_digest : 'a -> string;
  deliver : origin:int -> tag:int -> 'a -> unit;
  instances : (int * int, 'a instance) Hashtbl.t;
  mutable stopped : bool;
}

let instance t key =
  match Hashtbl.find_opt t.instances key with
  | Some i -> i
  | None ->
      let i =
        { echoed = false;
          readied = false;
          delivered = false;
          conflicted = false;
          echoes = Tally.create 4;
          readies = Tally.create 4;
          payloads = Hashtbl.create 2 }
      in
      Hashtbl.add t.instances key i;
      i

(* Record a payload under its digest; the first time one (origin, tag)
   instance accumulates two distinct payloads, the origin has provably
   equivocated at the RB layer — count it. *)
let note_payload t i digest payload =
  if not (Hashtbl.mem i.payloads digest) then begin
    let conflict = (not i.conflicted) && Hashtbl.length i.payloads > 0 in
    Hashtbl.replace i.payloads digest payload;
    if conflict then begin
      i.conflicted <- true;
      Fl_metrics.Recorder.incr t.recorder "rb_payload_conflicts"
    end
  end

let bcast t m = t.channel.Channel.bcast m

let send_ready t key i payload digest =
  if not i.readied then begin
    i.readied <- true;
    let origin, tag = key in
    note_payload t i digest payload;
    bcast t (Ready { origin; tag; payload })
  end

let try_deliver t key i digest =
  let f = t.channel.Channel.f in
  (match Hashtbl.find_opt i.payloads digest with
  | Some payload when Tally.count i.readies digest >= f + 1 ->
      (* Ready amplification: f+1 READYs imply a correct READY. *)
      send_ready t key i payload digest
  | _ -> ());
  if (not i.delivered) && Tally.count i.readies digest >= (2 * f) + 1 then
    match Hashtbl.find_opt i.payloads digest with
    | Some payload ->
        i.delivered <- true;
        Fl_metrics.Recorder.incr t.recorder "rb_deliveries";
        let origin, tag = key in
        t.deliver ~origin ~tag payload
    | None -> ()

let handle t (src, msg) =
  match msg with
  | Stop -> t.stopped <- true
  | Send { origin; tag; payload } ->
      if src = origin then begin
        let i = instance t (origin, tag) in
        if not i.echoed then begin
          i.echoed <- true;
          note_payload t i (t.payload_digest payload) payload;
          bcast t (Echo { origin; tag; payload })
        end
      end
  | Echo { origin; tag; payload } ->
      let i = instance t (origin, tag) in
      let digest = t.payload_digest payload in
      if Tally.add i.echoes digest ~src () then begin
        note_payload t i digest payload;
        if Tally.count i.echoes digest >= (2 * t.channel.Channel.f) + 1 then
          send_ready t (origin, tag) i payload digest;
        try_deliver t (origin, tag) i digest
      end
  | Ready { origin; tag; payload } ->
      let i = instance t (origin, tag) in
      let digest = t.payload_digest payload in
      if Tally.add i.readies digest ~src () then begin
        note_payload t i digest payload;
        try_deliver t (origin, tag) i digest
      end

let create engine ~recorder ~channel ~payload_digest ~deliver =
  let t =
    { engine;
      recorder;
      channel;
      payload_digest;
      deliver;
      instances = Hashtbl.create 16;
      stopped = false }
  in
  Fiber.spawn engine (fun () ->
      while not t.stopped do
        handle t (t.channel.Channel.recv ())
      done;
      t.channel.Channel.close ());
  t

let broadcast t ~tag payload =
  Fl_metrics.Recorder.incr t.recorder "rb_broadcasts";
  bcast t (Send { origin = t.channel.Channel.self; tag; payload })

let stop t =
  if not t.stopped then
    t.channel.Channel.send ~dst:t.channel.Channel.self Stop

(* Synchronous stop for teardown paths where the [stop] self-send
   cannot be delivered any more (cold restart replaced the inbox). *)
let halt t = t.stopped <- true
