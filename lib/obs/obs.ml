open Fl_sim

type kind =
  | Span of { t_begin : Time.t; t_end : Time.t }
  | Instant of { at : Time.t }
  | Gauge of { at : Time.t; value : float }

type event = {
  seq : int;
  cat : string;
  name : string;
  node : int;
  worker : int;
  round : int;
  kind : kind;
  args : (string * string) list;
}

type t = {
  capacity : int;
  buffer : event Queue.t;
  mutable total : int;
  last_gauges : (string * int, float) Hashtbl.t;
}

let create ?(capacity = 1_000_000) () =
  if capacity <= 0 then invalid_arg "Obs.create: capacity";
  { capacity;
    buffer = Queue.create ();
    total = 0;
    last_gauges = Hashtbl.create 32 }

let enabled = function Some _ -> true | None -> false

let push_impl t ~cat ~name ~node ~worker ~round ~kind ~args =
  let ev = { seq = t.total; cat; name; node; worker; round; kind; args } in
  Queue.push ev t.buffer;
  t.total <- t.total + 1;
  if Queue.length t.buffer > t.capacity then ignore (Queue.pop t.buffer)

(* Self-profiling bracket (Fl_prof): the observer observes itself —
   sink pushes are host-time the simulator pays only when a sink is
   installed, and the perf observatory should say how much. *)
let push t ~cat ~name ~node ~worker ~round ~kind ~args =
  if !Fl_prof.Prof.on then
    Fl_prof.Prof.frame Fl_prof.Prof.obs (fun () ->
        push_impl t ~cat ~name ~node ~worker ~round ~kind ~args)
  else push_impl t ~cat ~name ~node ~worker ~round ~kind ~args

let span t ~cat ~name ?(node = -1) ?(worker = -1) ?(round = -1) ?(args = [])
    ~t_begin ~t_end () =
  match t with
  | None -> ()
  | Some t ->
      push t ~cat ~name ~node ~worker ~round ~kind:(Span { t_begin; t_end })
        ~args

let instant t ~cat ~name ?(node = -1) ?(worker = -1) ?(round = -1)
    ?(args = []) ~at () =
  match t with
  | None -> ()
  | Some t ->
      push t ~cat ~name ~node ~worker ~round ~kind:(Instant { at }) ~args

let gauge t ~cat ~name ?(node = -1) ~at value =
  match t with
  | None -> ()
  | Some t ->
      Hashtbl.replace t.last_gauges (name, node) value;
      push t ~cat ~name ~node ~worker:(-1) ~round:(-1)
        ~kind:(Gauge { at; value }) ~args:[]

let events t = List.of_seq (Queue.to_seq t.buffer)
let count t = t.total
let dropped t = t.total - Queue.length t.buffer

let gauges t =
  Hashtbl.fold (fun (name, node) v acc -> (name, node, v) :: acc)
    t.last_gauges []
  |> List.sort compare

(* 64-bit FNV-1a over each event's fields. Integers and float bit
   patterns feed in as 8 little-endian bytes, strings as their length
   then their bytes, so field boundaries cannot alias. *)
let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) 0x100000001b3L

let fnv_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff)
  done;
  !h

let fnv_int h x = fnv_int64 h (Int64.of_int x)

let fnv_string h s =
  String.fold_left
    (fun h c -> fnv_byte h (Char.code c))
    (fnv_int h (String.length s))
    s

let fnv_event h ev =
  let h = fnv_int h ev.seq in
  let h = fnv_string (fnv_string h ev.cat) ev.name in
  let h = fnv_int (fnv_int (fnv_int h ev.node) ev.worker) ev.round in
  let h =
    match ev.kind with
    | Span { t_begin; t_end } -> fnv_int (fnv_int (fnv_byte h 0) t_begin) t_end
    | Instant { at } -> fnv_int (fnv_byte h 1) at
    | Gauge { at; value } ->
        fnv_int64 (fnv_int (fnv_byte h 2) at) (Int64.bits_of_float value)
  in
  List.fold_left
    (fun h (k, v) -> fnv_string (fnv_string h k) v)
    (fnv_int h (List.length ev.args))
    ev.args

let fingerprint t =
  let h = Queue.fold fnv_event 0xcbf29ce484222325L t.buffer in
  Printf.sprintf "%016Lx" (fnv_int h t.total)

let time_of ev =
  match ev.kind with
  | Span { t_begin; _ } -> t_begin
  | Instant { at } -> at
  | Gauge { at; _ } -> at

let attach_engine t engine ?(every = 4096) () =
  if every <= 0 then invalid_arg "Obs.attach_engine: every";
  Engine.set_probe engine
    (Some
       (fun ~now ~processed ~pending ->
         if processed mod every = 0 then begin
           gauge (Some t) ~cat:"sim" ~name:"engine_pending" ~at:now
             (float_of_int pending);
           gauge (Some t) ~cat:"sim" ~name:"engine_events" ~at:now
             (float_of_int processed)
         end))

let attach_cpu t ~node cpu =
  Cpu.set_probe cpu
    (Some
       (fun ~start ~dur ->
         span (Some t) ~cat:"sim" ~name:"cpu_busy" ~node ~t_begin:start
           ~t_end:(start + dur) ()))
