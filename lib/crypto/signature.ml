(* [keys.(i)] holds signer [i]'s HMAC midstates once its first [sign]
   or [verify] has filled them. Filling is idempotent, so two domains
   racing on one slot store equal keys. *)
type registry = { secret_keys : string array; keys : Sha256.key option array }
type signature = string

let length = Sha256.digest_size

(* Every secret key is an HMAC under the seed: one seed midstate serves
   them all. *)
let create_registry ~seed ~n =
  if n <= 0 then invalid_arg "Signature.create_registry: n must be positive";
  let seed = Sha256.hmac_key seed in
  let secret_keys =
    Array.init n (fun i -> Sha256.hmac_keyed seed ("sk:" ^ string_of_int i))
  in
  { secret_keys; keys = Array.make n None }

let key r signer =
  if signer < 0 || signer >= Array.length r.secret_keys then
    invalid_arg "Signature: unknown identity";
  match r.keys.(signer) with
  | Some k -> k
  | None ->
      let k = Sha256.hmac_key r.secret_keys.(signer) in
      r.keys.(signer) <- Some k;
      k

let sign r ~signer msg = Sha256.hmac_keyed (key r signer) msg

let verify r ~signer ~msg signature =
  signer >= 0
  && signer < Array.length r.secret_keys
  && String.equal (sign r ~signer msg) signature
