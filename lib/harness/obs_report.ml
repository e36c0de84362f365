(* Per-round aggregation of the span stream. *)

type acc = {
  mutable ac_sum : float;  (* tentative spans, ns *)
  mutable ac_n : int;
  mutable cd_sum : float;  (* finality_delay spans, ns *)
  mutable cd_n : int;
  mutable de_sum : float;  (* merge_wait spans, ns *)
  mutable de_n : int;
  mutable delivers : int;
  mutable nils : int;
}

let fresh () =
  { ac_sum = 0.0;
    ac_n = 0;
    cd_sum = 0.0;
    cd_n = 0;
    de_sum = 0.0;
    de_n = 0;
    delivers = 0;
    nils = 0 }

let mean_ms sum n = if n = 0 then 0.0 else sum /. float_of_int n /. 1e6

(* Rounds shown before the timeline samples. *)
let max_rows = 40

let round_timeline events =
  let rounds = Hashtbl.create 64 in
  let acc_of r =
    match Hashtbl.find_opt rounds r with
    | Some a -> a
    | None ->
        let a = fresh () in
        Hashtbl.add rounds r a;
        a
  in
  List.iter
    (fun (ev : Fl_obs.Obs.event) ->
      if ev.round >= 0 then
        let dur () =
          match ev.kind with
          | Fl_obs.Obs.Span { t_begin; t_end } -> float_of_int (t_end - t_begin)
          | _ -> 0.0
        in
        match (ev.cat, ev.name) with
        | "fireledger", "tentative" ->
            let a = acc_of ev.round in
            a.ac_sum <- a.ac_sum +. dur ();
            a.ac_n <- a.ac_n + 1
        | "fireledger", "finality_delay" ->
            let a = acc_of ev.round in
            a.cd_sum <- a.cd_sum +. dur ();
            a.cd_n <- a.cd_n + 1
        | "fireledger", "nil_round" ->
            let a = acc_of ev.round in
            a.nils <- a.nils + 1
        | "flo", "merge_wait" ->
            let a = acc_of ev.round in
            a.de_sum <- a.de_sum +. dur ();
            a.de_n <- a.de_n + 1
        | "flo", "deliver" ->
            let a = acc_of ev.round in
            a.delivers <- a.delivers + 1
        | _ -> ())
    events;
  let all =
    Hashtbl.fold (fun r a acc -> (r, a) :: acc) rounds []
    |> List.sort (fun (r1, _) (r2, _) -> compare r1 r2)
  in
  let total = List.length all in
  let shown =
    if total <= max_rows then all
    else
      (* evenly spaced sample, always keeping first and last *)
      let arr = Array.of_list all in
      List.init max_rows (fun i ->
          arr.(i * (total - 1) / (max_rows - 1)))
  in
  let title =
    if total <= max_rows then "per-round timeline"
    else
      Printf.sprintf "per-round timeline (%d of %d rounds shown)"
        (List.length shown) total
  in
  let t =
    Table.create ~title
      ~columns:
        [ "round"; "a->c ms"; "c->d ms"; "d->e ms"; "delivered"; "nil" ]
  in
  List.iter
    (fun (r, a) ->
      Table.add_row t
        [ Table.cell_i r;
          Table.cell_f ~dec:2 (mean_ms a.ac_sum a.ac_n);
          Table.cell_f ~dec:2 (mean_ms a.cd_sum a.cd_n);
          Table.cell_f ~dec:2 (mean_ms a.de_sum a.de_n);
          Table.cell_i a.delivers;
          Table.cell_i a.nils ])
    shown;
  Table.render t

let phase_cdf recorder =
  let t =
    Table.create ~title:"phase decomposition (Figure 8, per phase)"
      ~columns:[ "series"; "p50 ms"; "p90 ms"; "p99 ms"; "mean ms"; "count" ]
  in
  let row name =
    match Fl_metrics.Recorder.histogram recorder name with
    | None -> ()
    | Some h ->
        let q p =
          float_of_int (Fl_metrics.Histogram.quantile h p) /. 1e6
        in
        Table.add_row t
          [ name;
            Table.cell_f ~dec:2 (q 0.5);
            Table.cell_f ~dec:2 (q 0.9);
            Table.cell_f ~dec:2 (q 0.99);
            Table.cell_f ~dec:2 (Fl_metrics.Histogram.mean h /. 1e6);
            Table.cell_i (Fl_metrics.Histogram.count h) ]
  in
  List.iter row Fl_obs.Decomp.names;
  row "latency_e2e";
  Table.render t
