open Fl_sim
open Fl_net

let test_regions_matrix_well_formed () =
  let n = Fl_workload.Regions.count in
  Alcotest.(check int) "ten regions" 10 n;
  Alcotest.(check int) "names match matrix" n
    (Array.length Fl_workload.Regions.rtt_ms);
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "row %d width" i)
      n
      (Array.length Fl_workload.Regions.rtt_ms.(i));
    for j = 0 to n - 1 do
      let v = Fl_workload.Regions.rtt_ms.(i).(j) in
      Alcotest.(check bool) "positive" true (v > 0);
      Alcotest.(check int) "symmetric" v Fl_workload.Regions.rtt_ms.(j).(i)
    done
  done

let test_regions_latency_sampling () =
  let model = Fl_workload.Regions.latency ~jitter:0.0 ~n:4 () in
  let rng = Rng.create 4 in
  (* Tokyo -> Paris one-way = 220/2 = 110 ms. *)
  let d = Latency.sample model rng ~src:0 ~dst:3 in
  Alcotest.(check int) "one-way is rtt/2" (Time.ms 110) d;
  (* With jitter the draw varies but stays in a sane band. *)
  let jittery = Fl_workload.Regions.latency ~jitter:0.1 ~n:4 () in
  for _ = 1 to 50 do
    let d = Latency.sample jittery rng ~src:0 ~dst:3 in
    Alcotest.(check bool) "within 2x band" true
      (d > Time.ms 70 && d < Time.ms 170)
  done

let suite =
  [ Alcotest.test_case "regions matrix" `Quick test_regions_matrix_well_formed;
    Alcotest.test_case "regions latency" `Quick test_regions_latency_sampling ]
