(* A piece is a window over a backing of literal bytes [lits] and zero
   runs [runs]: flat pairs [(at, n)], [n > 0] zeros standing just
   before [lits.[at]], [at] strictly increasing; a backing may end in
   [max_int] sentinel pairs (a writer's unused capacity). The window
   starts at literal index [pos], [run] is the first run with
   [at >= pos], and when that run stands at [pos] its first [skip]
   zeros lie before the window. *)
type t = {
  lits : string;
  runs : int array;
  pos : int;
  run : int;
  skip : int;
  len : int;
}

let no_runs = [||]
let length t = t.len
let unsafe_make ~lits ~runs ~pos ~run ~skip ~len = { lits; runs; pos; run; skip; len }
let of_string s = { lits = s; runs = no_runs; pos = 0; run = 0; skip = 0; len = String.length s }

let of_sub s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Sparse.of_sub";
  { lits = s; runs = no_runs; pos; run = 0; skip = 0; len }

let at runs k = if 2 * k < Array.length runs then runs.(2 * k) else max_int

(* Walk the window in order: [lit p n] for each stretch of literal
   bytes [lits.[p .. p+n)], [zeros n] for each (part of a) zero run. *)
let iter t ~lit ~zeros =
  let left = ref t.len and p = ref t.pos and k = ref t.run in
  if !left > 0 && at t.runs !k = !p then begin
    let z = min (t.runs.((2 * !k) + 1) - t.skip) !left in
    zeros z;
    left := !left - z;
    incr k
  end;
  while !left > 0 do
    let n = min (at t.runs !k - !p) !left in
    if n > 0 then lit !p n;
    p := !p + n;
    left := !left - n;
    if !left > 0 then begin
      let z = min t.runs.((2 * !k) + 1) !left in
      zeros z;
      left := !left - z;
      incr k
    end
  done

(* [iter]'s walk with its two steps inlined: the checksum of every
   sealed and opened frame. *)
let crc t =
  let c = ref 0 and left = ref t.len and p = ref t.pos and k = ref t.run in
  if !left > 0 && at t.runs !k = !p then begin
    let z = min (t.runs.((2 * !k) + 1) - t.skip) !left in
    c := Crc32.update_zeros !c z;
    left := !left - z;
    incr k
  end;
  while !left > 0 do
    let n = min (at t.runs !k - !p) !left in
    c := Crc32.update !c t.lits ~pos:!p ~len:n;
    p := !p + n;
    left := !left - n;
    if !left > 0 then begin
      let z = min t.runs.((2 * !k) + 1) !left in
      c := Crc32.update_zeros !c z;
      left := !left - z;
      incr k
    end
  done;
  !c

let to_string t =
  if t.pos = 0 && t.len = String.length t.lits && at t.runs t.run = max_int
  then t.lits
  else begin
    let b = Bytes.create t.len and out = ref 0 in
    iter t
      ~lit:(fun p n ->
        Bytes.blit_string t.lits p b !out n;
        out := !out + n)
      ~zeros:(fun n ->
        Bytes.fill b !out n '\000';
        out := !out + n);
    Bytes.unsafe_to_string b
  end

(* The window [pos, pos+len) of [t]: walk its runs up to [pos]. *)
let sub t ~pos ~len =
  if pos < 0 || len < 0 || len > t.len - pos then invalid_arg "Sparse.sub";
  let p = ref t.pos and k = ref t.run and skip = ref t.skip and left = ref pos in
  let fin = ref false in
  while not !fin do
    let a = at t.runs !k in
    if !p < a then begin
      (* in a literal stretch, [skip] is 0 *)
      let lit = a - !p in
      if !left <= lit then begin
        p := !p + !left;
        fin := true
      end
      else begin
        left := !left - lit;
        p := a
      end
    end
    else begin
      let z = t.runs.((2 * !k) + 1) - !skip in
      if !left < z then begin
        skip := !skip + !left;
        fin := true
      end
      else begin
        left := !left - z;
        skip := 0;
        incr k
      end
    end
  done;
  { t with pos = !p; run = !k; skip = !skip; len }

(* One fresh backing for all the pieces: their literal bytes copied
   once, their runs re-based, adjacent runs merged. *)
let concat pieces =
  let lit_len = ref 0 and nruns = ref 0 and len = ref 0 in
  List.iter
    (fun t ->
      len := !len + t.len;
      iter t ~lit:(fun _ n -> lit_len := !lit_len + n) ~zeros:(fun _ -> incr nruns))
    pieces;
  let lits = Bytes.create !lit_len and runs = Array.make (2 * !nruns) 0 in
  let lp = ref 0 and k = ref 0 in
  List.iter
    (fun t ->
      iter t
        ~lit:(fun p n ->
          Bytes.blit_string t.lits p lits !lp n;
          lp := !lp + n)
        ~zeros:(fun n ->
          if !k > 0 && runs.(2 * (!k - 1)) = !lp then
            runs.((2 * (!k - 1)) + 1) <- runs.((2 * (!k - 1)) + 1) + n
          else begin
            runs.(2 * !k) <- !lp;
            runs.((2 * !k) + 1) <- n;
            incr k
          end))
    pieces;
  { lits = Bytes.unsafe_to_string lits;
    runs = (if !k = !nruns then runs else Array.sub runs 0 (2 * !k));
    pos = 0;
    run = 0;
    skip = 0;
    len = !len }

