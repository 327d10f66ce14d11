(** Fixed-width ASCII tables: the CLI's figures, resilience suite and
    per-station ledger. *)

type t

val create : header:string list -> t

val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells; longer
    rows raise [Invalid_argument]. *)

val to_string : t -> string

val print : t -> unit
(** [to_string] on stdout, followed by a newline. *)

val fmt_float : float -> string
(** Compact float formatting for table cells ("12.3", "0.0012", "4.1e+06");
    non-finite values (nan, ±inf) render as "-". *)

val fmt_ratio : measured:float -> bound:float -> string
(** "measured/bound" percentage cell, or "-" when the bound is not finite. *)
