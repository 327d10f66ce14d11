(** The repository's one JSON codec: a value type with real nesting and
    [null], a strict reader, and the string escaper and float writer every
    JSON producer shares. The event journal ({!Event}) decodes through
    {!parse} and encodes with {!escape} and {!add_float}; the serve
    protocol, its meta files and the exporters use the same functions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error. Numbers
    without a fraction or exponent are [Int]; the rest are [Float]. Never
    raises. *)

val to_string : t -> string
(** Single-line rendering (no newlines; strings escaped, floats through
    {!add_float}). *)

val escape : Buffer.t -> string -> unit
(** Append [s] escaped for the inside of a JSON string: quote and
    backslash, [\n], [\t], [\r], and [\u00XX] for every other byte below
    0x20. Bytes from 0x20 up pass through unchanged. *)

val add_float : Buffer.t -> float -> unit
(** Append a float that parses back to the same double: integral values
    below 1e15 without a fraction, the rest with 17 significant digits.
    Non-finite values, which JSON cannot spell, are written as [0]. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int : t -> int option
(** An [Int], or an integral [Float] inside the int range. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val field :
  string -> expected:string -> (t -> 'a option) -> default:'a -> t ->
  ('a, string) result
(** [field key ~expected decode ~default v] decodes the member [key] of
    [v]: [default] when it is absent or [null], and otherwise what
    [decode] makes of it. A present value that [decode] rejects is an
    error naming [key] and what was [expected], never the default. *)
