type registry = { secret_keys : string array }
type signature = string

let length = Sha256.digest_size

let create_registry ~seed ~n =
  if n <= 0 then invalid_arg "Signature.create_registry: n must be positive";
  let secret_keys =
    Array.init n (fun i -> Sha256.hmac ~key:seed (Printf.sprintf "sk:%d" i))
  in
  { secret_keys }

let secret_key r signer =
  if signer < 0 || signer >= Array.length r.secret_keys then
    invalid_arg "Signature: unknown identity";
  r.secret_keys.(signer)

let sign r ~signer msg = Sha256.hmac ~key:(secret_key r signer) msg

let verify r ~signer ~msg signature =
  signer >= 0
  && signer < Array.length r.secret_keys
  && String.equal (sign r ~signer msg) signature
