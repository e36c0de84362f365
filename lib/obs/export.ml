let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Fl_prof.Json.escape buf s;
  Buffer.contents buf

let filter ?nodes ?cats ?t_from ?t_to events =
  let keep (ev : Obs.event) =
    (match nodes with
    | None -> true
    | Some ns -> ev.node = -1 || List.mem ev.node ns)
    && (match cats with None -> true | Some cs -> List.mem ev.cat cs)
    && (match t_from with None -> true | Some t -> Obs.time_of ev >= t)
    && match t_to with None -> true | Some t -> Obs.time_of ev < t
  in
  List.filter keep events

(* Chrome trace-event JSON.  Timestamps are microseconds; we render
   nanoseconds as fractional microseconds with three decimals so no
   precision is lost. *)

let us t = Printf.sprintf "%.3f" (float_of_int t /. 1000.0)

let pid_of (ev : Obs.event) = ev.node + 1
let tid_of (ev : Obs.event) = ev.worker + 1

let chrome_args buf (ev : Obs.event) =
  Buffer.add_string buf ",\"args\":{";
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_char buf ',';
    Fl_prof.Json.escape buf k;
    Buffer.add_char buf ':';
    Buffer.add_string buf v
  in
  if ev.round >= 0 then field "round" (string_of_int ev.round);
  field "seq" (string_of_int ev.seq);
  List.iter (fun (k, v) -> field k (json_string v)) ev.args;
  Buffer.add_char buf '}'

let chrome_json ?(dropped = 0) events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit_obj f =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n{";
    f ();
    Buffer.add_char buf '}'
  in
  (* Metadata: name the process (node) and thread (worker) tracks for
     every (pid, tid) pair that appears, in sorted order so output is
     deterministic. *)
  let pids = ref [] and tracks = ref [] in
  List.iter
    (fun ev ->
      let pid = pid_of ev and tid = tid_of ev in
      if not (List.mem pid !pids) then pids := pid :: !pids;
      if not (List.mem (pid, tid) !tracks) then tracks := (pid, tid) :: !tracks)
    events;
  let pids = List.sort compare !pids in
  let tracks = List.sort compare !tracks in
  List.iter
    (fun pid ->
      emit_obj (fun () ->
          let name =
            if pid = 0 then "cluster" else Printf.sprintf "node %d" (pid - 1)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
                \"args\":{\"name\":%s}"
               pid (json_string name))))
    pids;
  List.iter
    (fun (pid, tid) ->
      emit_obj (fun () ->
          let name =
            if tid = 0 then "main" else Printf.sprintf "worker %d" (tid - 1)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
                \"args\":{\"name\":%s}"
               pid tid (json_string name))))
    tracks;
  List.iter
    (fun (ev : Obs.event) ->
      emit_obj (fun () ->
          let common ph =
            Buffer.add_string buf
              (Printf.sprintf "\"name\":%s,\"cat\":%s,\"ph\":\"%s\",\
                               \"pid\":%d,\"tid\":%d"
                 (json_string ev.name) (json_string ev.cat) ph (pid_of ev)
                 (tid_of ev))
          in
          (match ev.kind with
          | Obs.Span { t_begin; t_end } ->
              common "X";
              let dur = max 0 (t_end - t_begin) in
              Buffer.add_string buf
                (Printf.sprintf ",\"ts\":%s,\"dur\":%s" (us t_begin) (us dur))
          | Obs.Instant { at } ->
              common "i";
              Buffer.add_string buf
                (Printf.sprintf ",\"ts\":%s,\"s\":\"t\"" (us at))
          | Obs.Gauge { at; value } ->
              common "C";
              Buffer.add_string buf
                (Printf.sprintf ",\"ts\":%s,\"args\":{\"value\":%g}" (us at)
                   value));
          match ev.kind with
          | Obs.Gauge _ -> ()
          | _ -> chrome_args buf ev))
    events;
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"%d\"}}\n"
       dropped);
  Buffer.contents buf

let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (ev : Obs.event) ->
      Buffer.add_char buf '{';
      Buffer.add_string buf (Printf.sprintf "\"seq\":%d" ev.seq);
      Buffer.add_string buf (",\"cat\":" ^ json_string ev.cat);
      Buffer.add_string buf (",\"name\":" ^ json_string ev.name);
      Buffer.add_string buf (Printf.sprintf ",\"node\":%d" ev.node);
      Buffer.add_string buf (Printf.sprintf ",\"worker\":%d" ev.worker);
      Buffer.add_string buf (Printf.sprintf ",\"round\":%d" ev.round);
      (match ev.kind with
      | Obs.Span { t_begin; t_end } ->
          Buffer.add_string buf
            (Printf.sprintf
               ",\"kind\":\"span\",\"t_begin\":%d,\"t_end\":%d,\"dur\":%d"
               t_begin t_end (t_end - t_begin))
      | Obs.Instant { at } ->
          Buffer.add_string buf
            (Printf.sprintf ",\"kind\":\"instant\",\"at\":%d" at)
      | Obs.Gauge { at; value } ->
          Buffer.add_string buf
            (Printf.sprintf ",\"kind\":\"gauge\",\"at\":%d,\"value\":%g" at
               value));
      if ev.args <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Fl_prof.Json.escape buf k;
            Buffer.add_char buf ':';
            Fl_prof.Json.escape buf v)
          ev.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_string buf "}\n")
    events;
  Buffer.contents buf

(* Prometheus text exposition. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_name name = "fl_" ^ sanitize name

let prometheus ?recorder ?obs () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match recorder with
  | None -> ()
  | Some r ->
      let counter n v =
        line "# TYPE %s counter" n;
        line "%s %d" n v
      in
      let counters = Fl_metrics.Recorder.counters r in
      List.iter (fun (name, v, _) -> counter (prom_name name) v) counters;
      List.iter
        (fun (name, _, windowed) ->
          Option.iter (counter (prom_name name ^ "_total")) windowed)
        counters;
      List.iter
        (fun (name, h) ->
          let n = prom_name name in
          line "# TYPE %s summary" n;
          if Fl_metrics.Histogram.count h > 0 then begin
            line "%s{quantile=\"0.5\"} %d" n
              (Fl_metrics.Histogram.quantile h 0.5);
            line "%s{quantile=\"0.9\"} %d" n
              (Fl_metrics.Histogram.quantile h 0.9);
            line "%s{quantile=\"0.99\"} %d" n
              (Fl_metrics.Histogram.quantile h 0.99)
          end;
          let count = Fl_metrics.Histogram.count h in
          let sum = Fl_metrics.Histogram.mean h *. float_of_int count in
          line "%s_sum %g" n sum;
          line "%s_count %d" n count)
        (Fl_metrics.Recorder.histograms r));
  (match obs with
  | None -> ()
  | Some sink ->
      let by_name = Hashtbl.create 16 in
      List.iter
        (fun (name, node, v) ->
          let xs = try Hashtbl.find by_name name with Not_found -> [] in
          Hashtbl.replace by_name name ((node, v) :: xs))
        (Obs.gauges sink);
      let names =
        Hashtbl.fold (fun k _ acc -> k :: acc) by_name []
        |> List.sort_uniq compare
      in
      List.iter
        (fun name ->
          let n = prom_name name in
          line "# TYPE %s gauge" n;
          List.iter
            (fun (node, v) ->
              if node = -1 then line "%s %g" n v
              else line "%s{node=\"%d\"} %g" n node v)
            (List.sort compare (Hashtbl.find by_name name)))
        names);
  Buffer.contents buf

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
