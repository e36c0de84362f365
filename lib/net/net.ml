open Fl_sim

module Frame = struct
  type 'm t = { bytes : string; msg : 'm option Lazy.t }

  let make decode bytes = { bytes; msg = lazy (decode bytes) }
  let bytes f = f.bytes
  let msg f = Lazy.force f.msg
end

type 'm t = {
  engine : Engine.t;
  decode : string -> 'm option;
  rng : Rng.t;
  loss_rng : Rng.t;
      (* dedicated stream so probabilistic-loss draws do not perturb
         the latency sampling sequence *)
  corrupt_rng : Rng.t;
      (* dedicated stream for byte-fault draws; consumed only while a
         corruption window is open, so corruption-free runs are
         byte-identical to pre-corruption builds *)
  nics : Nic.t array;
  latency : Latency.t;
  inboxes : (int * 'm Frame.t) Mailbox.t array;
  mutable filter : (src:int -> dst:int -> bool) option;
  mutable groups : int array option;  (* partition: group id per node *)
  loss : (int, float) Hashtbl.t;  (* per-node outbound drop probability *)
  corrupt : (int, float) Hashtbl.t;
      (* per-node outbound byte-fault probability *)
  link_bytes : int array array;  (* [src].[dst] wire bytes delivered *)
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable obs : Fl_obs.Obs.t option;
  mutable obs_worker : int;
}

let create engine rng ~nics ~latency ~decode =
  let n = Array.length nics in
  if n = 0 then invalid_arg "Net.create: empty nic array";
  { engine;
    decode;
    rng;
    loss_rng = Rng.named_split rng "net-loss";
    corrupt_rng = Rng.named_split rng "net-corrupt";
    nics;
    latency;
    inboxes = Array.init n (fun _ -> Mailbox.create engine);
    filter = None;
    groups = None;
    loss = Hashtbl.create 4;
    corrupt = Hashtbl.create 4;
    link_bytes = Array.make_matrix n n 0;
    delivered = 0;
    dropped = 0;
    corrupted = 0;
    obs = None;
    obs_worker = -1 }

let set_obs ?(worker = -1) t obs =
  t.obs <- obs;
  t.obs_worker <- worker

let n t = Array.length t.nics
let inbox t i = t.inboxes.(i)

let reset_inbox t i =
  if i < 0 || i >= Array.length t.inboxes then
    invalid_arg "Net.reset_inbox: node id";
  t.inboxes.(i) <- Mailbox.create t.engine

let set_partition t groups =
  let n = Array.length t.nics in
  let ids = Array.make n (List.length groups) in
  List.iteri
    (fun g members ->
      List.iter
        (fun i ->
          if i < 0 || i >= n then invalid_arg "Net.set_partition: node id";
          ids.(i) <- g)
        members)
    groups;
  t.groups <- Some ids;
  Fl_obs.Obs.instant t.obs ~cat:"net" ~name:"partition"
    ~args:[ ("groups", string_of_int (List.length groups)) ]
    ~at:(Engine.now t.engine) ()

let heal t =
  t.groups <- None;
  Fl_obs.Obs.instant t.obs ~cat:"net" ~name:"heal" ~at:(Engine.now t.engine)
    ()

let set_loss t ~node prob =
  if prob < 0.0 || prob > 1.0 then invalid_arg "Net.set_loss: probability";
  if node < 0 || node >= Array.length t.nics then
    invalid_arg "Net.set_loss: node id";
  if prob = 0.0 then Hashtbl.remove t.loss node
  else Hashtbl.replace t.loss node prob

let set_corrupt t ~node prob =
  if prob < 0.0 || prob > 1.0 then invalid_arg "Net.set_corrupt: probability";
  if node < 0 || node >= Array.length t.nics then
    invalid_arg "Net.set_corrupt: node id";
  if prob = 0.0 then Hashtbl.remove t.corrupt node
  else Hashtbl.replace t.corrupt node prob

let deliverable t ~src ~dst =
  (match t.filter with None -> true | Some f -> f ~src ~dst)
  && (src = dst
     ||
     (* A node always reaches itself; partitions and loss windows act
        on the wire only. *)
     (match t.groups with
      | None -> true
      | Some ids -> ids.(src) = ids.(dst))
     &&
     match Hashtbl.find_opt t.loss src with
     | None -> true
     | Some p -> Rng.float t.loss_rng 1.0 >= p)

(* Byte-level fault injection: with the window's probability, either
   flip one bit of a copy of the frame's bytes or truncate them at a
   random boundary — the two physical failure modes a checksum must
   catch. Self-delivery is exempt (no wire). The bytes are copied
   before mutation, and the mutant travels as a fresh frame with its
   own decode: the other links of the same broadcast keep the intact
   frame and its shared decode. *)
let maybe_corrupt t ~src ~dst frame =
  if src = dst then frame
  else
    match Hashtbl.find_opt t.corrupt src with
    | None -> frame
    | Some p ->
        let payload = Frame.bytes frame in
        let len = String.length payload in
        if len = 0 || Rng.float t.corrupt_rng 1.0 >= p then frame
        else begin
          t.corrupted <- t.corrupted + 1;
          let flip = Rng.bool t.corrupt_rng in
          let payload' =
            if flip then begin
              let b = Bytes.of_string payload in
              let i = Rng.int t.corrupt_rng len in
              let bit = Rng.int t.corrupt_rng 8 in
              Bytes.unsafe_set b i
                (Char.unsafe_chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
              Bytes.unsafe_to_string b
            end
            else String.sub payload 0 (Rng.int t.corrupt_rng len)
          in
          Fl_obs.Obs.instant t.obs ~cat:"net" ~name:"corrupt" ~node:src
            ~worker:t.obs_worker
            ~args:
              [ ("dst", string_of_int dst);
                ("mode", if flip then "bitflip" else "truncate");
                ("bytes", string_of_int (String.length payload')) ]
            ~at:(Engine.now t.engine) ();
          Frame.make t.decode payload'
        end

let deliver t ~src ~dst ~at frame =
  let now = Engine.now t.engine in
  (* Tagged with the destination as its lane: deliveries to different
     nodes commute, which is what lets the model-checker arbiter prune
     equivalent interleavings. *)
  ignore
    (Engine.schedule ~lane:dst t.engine ~delay:(at - now) (fun () ->
         t.delivered <- t.delivered + 1;
         Mailbox.send t.inboxes.(dst) (src, frame)))

(* The frame carries whatever bytes the sender encoded; the NIC is
   charged their exact length — there is no separate size channel to
   drift from the content. A truncating fault shortens the frame
   before the NIC, as on a real wire where the cut transmission ends
   early. *)
let transmit t ~src ~dst frame =
  if not (deliverable t ~src ~dst) then begin
    t.dropped <- t.dropped + 1;
    Fl_obs.Obs.instant t.obs ~cat:"net" ~name:"drop" ~node:src
      ~worker:t.obs_worker
      ~args:
        [ ("dst", string_of_int dst);
          ("bytes", string_of_int (String.length (Frame.bytes frame))) ]
      ~at:(Engine.now t.engine) ()
  end
  else begin
    let frame = maybe_corrupt t ~src ~dst frame in
    let size = String.length (Frame.bytes frame) in
    t.link_bytes.(src).(dst) <- t.link_bytes.(src).(dst) + size;
    let now = Engine.now t.engine in
    let propagation = Latency.sample t.latency t.rng ~src ~dst in
    if src = dst then deliver t ~src ~dst ~at:(now + propagation) frame
    else begin
      if Fl_obs.Obs.enabled t.obs then
        Fl_obs.Obs.gauge t.obs ~cat:"net" ~name:"nic_tx_backlog" ~node:src
          ~at:now
          (float_of_int (Nic.tx_backlog t.nics.(src) ~now));
      let tx_done = Nic.tx_finish t.nics.(src) ~now ~bytes:size in
      let arrival = tx_done + propagation in
      let rx_done = Nic.rx_finish t.nics.(dst) ~arrival ~bytes:size in
      if Fl_obs.Obs.enabled t.obs then begin
        let ser = Nic.serialization t.nics.(src) size in
        Fl_obs.Obs.span t.obs ~cat:"net" ~name:"nic_tx" ~node:src
          ~worker:t.obs_worker
          ~args:[ ("dst", string_of_int dst); ("bytes", string_of_int size) ]
          ~t_begin:(tx_done - ser) ~t_end:tx_done ();
        Fl_obs.Obs.span t.obs ~cat:"net" ~name:"link" ~node:src
          ~worker:t.obs_worker
          ~args:[ ("dst", string_of_int dst); ("bytes", string_of_int size) ]
          ~t_begin:tx_done ~t_end:rx_done ()
      end;
      deliver t ~src ~dst ~at:rx_done frame
    end
  end

(* Each call wraps its bytes in one frame, whatever the number of
   destinations: every receiver of a broadcast shares the frame and
   hence its single decode. *)
let send t ~src ~dst payload =
  transmit t ~src ~dst (Frame.make t.decode payload)

let broadcast ?(include_self = true) t ~src payload =
  let frame = Frame.make t.decode payload in
  let count = Array.length t.nics in
  for dst = 0 to count - 1 do
    if dst <> src then transmit t ~src ~dst frame
  done;
  if include_self then transmit t ~src ~dst:src frame

let multicast t ~src ~dsts payload =
  let frame = Frame.make t.decode payload in
  List.iter (fun dst -> transmit t ~src ~dst frame) dsts

let set_filter t f = t.filter <- f
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_corrupted t = t.corrupted

let link_bytes t ~src ~dst =
  if
    src < 0
    || src >= Array.length t.nics
    || dst < 0
    || dst >= Array.length t.nics
  then invalid_arg "Net.link_bytes: node id";
  t.link_bytes.(src).(dst)

let bytes_out t ~node =
  if node < 0 || node >= Array.length t.nics then
    invalid_arg "Net.bytes_out: node id";
  Array.fold_left ( + ) 0 t.link_bytes.(node)
