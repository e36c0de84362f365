type t = { id : int; size : int; payload : string }

let create ~id ~size =
  if size < 0 then invalid_arg "Tx.create: negative size";
  { id; size; payload = "" }

let create_payload ~id payload = { id; size = String.length payload; payload }

let digest t =
  if t.payload <> "" then Fl_crypto.Sha256.digest t.payload
  else begin
    (* Canonical synthetic commitment: unique per (id, size), 32 bytes,
       no hashing cost on the simulator's hot path. *)
    let b = Bytes.make 32 '\000' in
    Bytes.set b 0 '\x7f';
    Bytes.set_int64_le b 8 (Int64.of_int t.id);
    Bytes.set_int64_le b 16 (Int64.of_int t.size);
    Bytes.unsafe_to_string b
  end

let equal a b = a.id = b.id && a.size = b.size && String.equal a.payload b.payload
