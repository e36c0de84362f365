let hex_chars = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_chars.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_chars.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

let short s =
  let h = encode s in
  if String.length h <= 8 then h else String.sub h 0 8
