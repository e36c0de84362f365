open Fl_sim

type count = { mutable total : int; mutable windowed : int }

type t = {
  engine : Engine.t;
  counts : (string, count) Hashtbl.t;
  histos : (string, Histogram.t) Hashtbl.t;
  mutable window_start : Time.t;
  mutable window_stop : Time.t;
}

let create engine =
  { engine;
    counts = Hashtbl.create 32;
    histos = Hashtbl.create 32;
    window_start = 0;
    window_stop = 0 }

let add t name k =
  let c =
    match Hashtbl.find_opt t.counts name with
    | Some c -> c
    | None ->
        let c = { total = 0; windowed = 0 } in
        Hashtbl.add t.counts name c;
        c
  in
  c.total <- c.total + k;
  let now = Engine.now t.engine in
  if now >= t.window_start && now < t.window_stop then
    c.windowed <- c.windowed + k

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.counts name with Some c -> c.total | None -> 0

let windowed_count t name =
  match Hashtbl.find_opt t.counts name with Some c -> c.windowed | None -> 0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histos name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add t.histos name h;
        h
  in
  Histogram.record h v

let histogram t name = Hashtbl.find_opt t.histos name

let set_window t ~start ~stop =
  if stop <= start then invalid_arg "Recorder.set_window: empty window";
  t.window_start <- start;
  t.window_stop <- stop

let rate_per_s t name =
  let span = t.window_stop - t.window_start in
  if span <= 0 then 0.0
  else float_of_int (windowed_count t name) /. Time.to_float_s span

let counters t =
  let windowed c =
    if t.window_stop > t.window_start then Some c.windowed else None
  in
  Hashtbl.fold (fun k c acc -> (k, c.total, windowed c) :: acc) t.counts []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.histos []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
