(** Minimal JSON, just enough for the benchmark result files: no
    external dependency, deterministic output (fields in the order
    given), and a recursive-descent parser that reports the offset of
    the first error. Numbers are floats; strings are ASCII apart from
    the standard escapes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : Buffer.t -> string -> unit
(** [escape buf s] appends [s] as a quoted JSON string literal. Double
    quote, backslash, newline, carriage return and tab get their short
    escapes, other control characters a [\u] escape; every other byte
    is copied as is. *)

val num_to_string : float -> string
(** Integers below 1e15 without a fraction, other finite numbers with
    [%.17g] (exact on a round trip), non-finite numbers as [0]. *)

val to_string : t -> string
(** Indented by two spaces per level, with a final newline. *)

val of_string : string -> (t, string) result
(** [Error] names the byte offset of the first syntax error. *)

val member : string -> t -> t option
(** The field [key] of an object; [None] for a missing field or a
    non-object. *)

val to_float : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
