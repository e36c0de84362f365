(* Structured micro-benchmark results: the repo's perf trajectory.

   One [kernel] per measured micro-benchmark — ns/run fitted by
   ordinary least squares over increasing batch sizes (so per-batch
   overhead lands in the intercept, not the estimate), allocated
   words/run from the Gc counters over the whole measured set
   (allocation is linear in runs, a mean is exact) — grouped into one
   [file] per area and serialized as BENCH_<area>.json in a stable,
   versioned schema that {!Compare} gates regressions against. *)

type kernel = {
  k_name : string;
  k_area : string;
  k_ns_per_run : float;
  k_minor_words_per_run : float;
  k_major_words_per_run : float;
  k_runs : int;  (* total measured runs behind the estimates *)
}

type file = {
  f_area : string;
  f_host : string;
  f_ocaml : string;
  f_commit : string;
  f_mode : string;  (* "smoke" | "default" | "full" *)
  f_kernels : kernel list;
}

let schema_name = "fl-bench"
let schema_version = 1

let host_fingerprint () =
  Printf.sprintf "%s/%s/%d-bit"
    (try Unix.gethostname () with _ -> "unknown-host")
    Sys.os_type Sys.word_size

(* ---------- measurement ---------- *)

type quota = { q_ms : float; q_min_samples : int; q_max_batch : int }

let smoke_quota = { q_ms = 60.0; q_min_samples = 3; q_max_batch = 256 }
let default_quota = { q_ms = 250.0; q_min_samples = 4; q_max_batch = 4096 }
let full_quota = { q_ms = 1000.0; q_min_samples = 6; q_max_batch = 16384 }

(* Least squares y = a + b·x over samples [(runs, ns)]; returns the
   slope b. Falls back to the pooled mean ns/run when the x-variance
   is degenerate (every sample at the same batch size — the heavy
   kernels that never get past batch 1) or the fit goes non-positive
   (noise on a near-zero-cost kernel). *)
let ols_ns_per_run samples =
  let n = float_of_int (List.length samples) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 samples in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 samples in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 samples in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 samples in
  let denom = (n *. sxx) -. (sx *. sx) in
  let pooled = if sx > 0.0 then sy /. sx else 0.0 in
  if Float.abs denom < 1e-9 then pooled
  else
    let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
    if slope > 0.0 then slope else pooled

let measure ?(quota = default_quota) ~name ~area f =
  f ();
  (* one warmup run outside every counter *)
  let deadline =
    Int64.add (Clock.now_ns ())
      (Int64.of_float (quota.q_ms *. 1e6))
  in
  let minor0, _, major0 = Gc.counters () in
  let samples = ref [] in
  let total_runs = ref 0 in
  let batch = ref 1 in
  let continue = ref true in
  while !continue do
    let b = !batch in
    let t0 = Clock.now_ns () in
    for _ = 1 to b do
      f ()
    done;
    let t1 = Clock.now_ns () in
    let ns = Int64.to_float (Int64.sub t1 t0) in
    samples := (float_of_int b, ns) :: !samples;
    total_runs := !total_runs + b;
    (* Grow the batch while a batch stays well under the quota, so the
       OLS sees a spread of x values; stop once past the deadline with
       enough samples in hand. *)
    if ns < quota.q_ms *. 1e6 /. 8.0 && b < quota.q_max_batch then
      batch := b * 2;
    if
      Int64.compare (Clock.now_ns ()) deadline >= 0
      && List.length !samples >= quota.q_min_samples
    then continue := false
  done;
  let minor1, _, major1 = Gc.counters () in
  let runs = float_of_int !total_runs in
  { k_name = name;
    k_area = area;
    k_ns_per_run = ols_ns_per_run !samples;
    k_minor_words_per_run = (minor1 -. minor0) /. runs;
    k_major_words_per_run = (major1 -. major0) /. runs;
    k_runs = !total_runs }

(* Allocation-only measurement: exact on a deterministic kernel, used
   by the committed allocation pins. The minor collection before the
   first reading empties the minor heap, so the words a collection
   promotes during the runs do not depend on what earlier code left
   there. *)
let alloc_per_run ?(runs = 1000) f =
  f ();
  Gc.minor ();
  let minor0, _, major0 = Gc.counters () in
  for _ = 1 to runs do
    f ()
  done;
  let minor1, _, major1 = Gc.counters () in
  let r = float_of_int runs in
  ((minor1 -. minor0) /. r, (major1 -. major0) /. r)

(* ---------- JSON (de)serialization ---------- *)

let kernel_to_json k =
  Json.Obj
    [ ("name", Json.Str k.k_name);
      ("ns_per_run", Json.Num k.k_ns_per_run);
      ("minor_words_per_run", Json.Num k.k_minor_words_per_run);
      ("major_words_per_run", Json.Num k.k_major_words_per_run);
      ("runs", Json.Num (float_of_int k.k_runs)) ]

let to_json f =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str schema_name);
         ("schema_version", Json.Num (float_of_int schema_version));
         ("area", Json.Str f.f_area);
         ("host", Json.Str f.f_host);
         ("ocaml", Json.Str f.f_ocaml);
         ("commit", Json.Str f.f_commit);
         ("mode", Json.Str f.f_mode);
         ("kernels", Json.Arr (List.map kernel_to_json f.f_kernels)) ])

let ( let* ) = Result.bind

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCH json: missing or bad %s" what)

let str_field j name =
  req (name ^ " (string)") (Option.bind (Json.member name j) Json.to_str)

let num_field j name =
  req (name ^ " (number)") (Option.bind (Json.member name j) Json.to_float)

let kernel_of_json ~area j =
  let* name = str_field j "name" in
  let* ns = num_field j "ns_per_run" in
  let* minor = num_field j "minor_words_per_run" in
  let* major = num_field j "major_words_per_run" in
  let* runs = num_field j "runs" in
  if not (Float.is_finite ns) || ns < 0.0 then
    Error (Printf.sprintf "BENCH json: kernel %s: bad ns_per_run" name)
  else
    Ok
      { k_name = name;
        k_area = area;
        k_ns_per_run = ns;
        k_minor_words_per_run = minor;
        k_major_words_per_run = major;
        k_runs = int_of_float runs }

let of_json s =
  let* j = Json.of_string s in
  let* schema = str_field j "schema" in
  let* version = num_field j "schema_version" in
  if schema <> schema_name then
    Error (Printf.sprintf "BENCH json: schema %S, expected %S" schema schema_name)
  else if int_of_float version <> schema_version then
    Error
      (Printf.sprintf "BENCH json: schema_version %d, expected %d"
         (int_of_float version) schema_version)
  else
    let* area = str_field j "area" in
    let* host = str_field j "host" in
    let* ocaml = str_field j "ocaml" in
    let* commit = str_field j "commit" in
    let* mode = str_field j "mode" in
    let* kernels = req "kernels (array)" (Option.bind (Json.member "kernels" j) Json.to_arr) in
    let* kernels =
      List.fold_left
        (fun acc k ->
          let* acc = acc in
          let* k = kernel_of_json ~area k in
          Ok (k :: acc))
        (Ok []) kernels
    in
    Ok
      { f_area = area;
        f_host = host;
        f_ocaml = ocaml;
        f_commit = commit;
        f_mode = mode;
        f_kernels = List.rev kernels }

let filename ~area = "BENCH_" ^ area ^ ".json"

let write_file ~dir f =
  let path = Filename.concat dir (filename ~area:f.f_area) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json f));
  path

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_json s
  | exception Sys_error e -> Error e
