(** Hexadecimal encoding of binary strings (digests, signatures). *)

val encode : string -> string
(** Lowercase hex of every byte. *)

val decode : string -> string
(** Inverse of [encode]. Raises [Invalid_argument] on odd length or
    non-hex characters. *)

val short : string -> string
(** First 8 hex characters — convenient for logs. *)
