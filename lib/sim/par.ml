(* Domain-parallel map over independent simulation runs.

   The simulator itself is single-threaded by design (one engine, one
   event heap), but sweeps — N seeds × M configs, every run building
   its own engine, cluster and RNG stream — are embarrassingly
   parallel. [map ~jobs n f] shards the index space over OCaml 5
   domains with an atomic work-stealing counter and merges results by
   index, so the output is exactly [f 0 .. f (n-1)] in order: byte-
   identical to the sequential sweep regardless of [jobs], provided
   each [f i] is self-contained (no mutable globals — the engine,
   cluster and explorer state are all per-run; the codec writer pool
   is domain-local).

   Two global subsystems are *not* domain-safe and force the
   sequential path: the self-profiler (Fl_prof's frame stack and
   accumulation arrays are plain globals, and a profiled sweep wants
   stable attribution anyway) — guarded here — and an installed
   default observatory, guarded by the harness ({!Fl_harness.Parsweep})
   which is the layer that knows about it. *)

(* A runtime without working domain support (or a build where spawn is
   unavailable) should fail loudly when parallelism was explicitly
   requested, not silently degrade. *)
let probe =
  lazy
    (match Domain.join (Domain.spawn (fun () -> 17)) with
    | 17 -> Ok ()
    | _ -> Error "Par: domain probe returned garbage"
    | exception e ->
        Error
          (Printf.sprintf
             "Par: this OCaml runtime cannot spawn domains (%s) — rerun \
              with --jobs 1 (or unset FL_JOBS)"
             (Printexc.to_string e)))

let ensure_available () =
  match Lazy.force probe with Ok () -> () | Error m -> failwith m

let map ~jobs n f =
  if n < 0 then invalid_arg "Par.map: negative length";
  let jobs = if !Fl_prof.Prof.on then 1 else jobs in
  if jobs <= 1 || n <= 1 then
    (* plain sequential loop in index order *)
    Array.init n f
  else begin
    ensure_available ();
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get error <> None then continue := false
        else
          match f i with
          | v -> results.(i) <- Some v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set error None (Some (e, bt)))
      done
    in
    let extra = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join extra;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* [--jobs] / FL_JOBS resolution, shared by every sweep entry point:
   an explicit CLI value (>= 1) wins, else the FL_JOBS environment
   variable, else 1 (sequential). *)
let env_jobs () =
  match Sys.getenv_opt "FL_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ ->
          failwith
            (Printf.sprintf "FL_JOBS=%S: expected a positive integer" s))

let resolve_jobs ?cli () =
  match cli with
  | Some j when j >= 1 -> j
  | Some j when j < 0 -> failwith "--jobs: expected a positive integer"
  | _ -> ( match env_jobs () with Some j -> j | None -> 1)
