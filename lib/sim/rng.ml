(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, excellent
   statistical quality for simulation purposes, and trivially
   splittable. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = int64 t }

let named_split t label =
  (* Hash the label into the current state without consuming from it. *)
  let h =
    String.fold_left
      (fun acc c -> Int64.(add (mul acc 1099511628211L) (of_int (Char.code c))))
      0xcbf29ce484222325L label
  in
  { state = mix (Int64.logxor t.state h) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* Power of two: mask — exact, no bias. [land max_int] clears
       OCaml's 63-bit sign bit first. *)
    Int64.to_int (int64 t) land max_int land (bound - 1)
  else begin
    (* Rejection sampling over the largest multiple of [bound] that
       fits in 62 bits. A bare [mod bound] has modulo bias: the low
       residues are hit ⌈2^62/bound⌉ times and the high ones only
       ⌊2^62/bound⌋ — negligible for simulation-sized bounds
       (≤ 2^-30 for bound ≤ 2^32) but real, and material for bounds
       near [max_int]. Rejecting draws from the final partial cycle
       makes every residue exactly equally likely; the expected number
       of retries is < 1 for every bound. *)
    let limit = max_int - (((max_int mod bound) + 1) mod bound) in
    let rec draw () =
      let r = Int64.to_int (int64 t) land max_int in
      if r > limit then draw () else r mod bound
    in
    draw ()
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits -> [0,1) *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let lognormal t ~mu ~sigma =
  (* Box-Muller transform. *)
  let u1 = max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  exp (mu +. (sigma *. z))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
