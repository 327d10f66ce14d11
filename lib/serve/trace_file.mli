(** Recorded injection traces: text files with one ["AT SRC DST"] triple
    per line ([#] comments and blank lines allowed). The same file feeds
    batch replay ([run --inject]) and socket replay ([fleet replay]). *)

val load :
  ?n:int -> path:string -> unit -> ((int * int * int) list, string) result
(** Parse a trace file in order. With [n], stations are range-checked
    against it. [src = dst] and negative values are rejected. Every
    error, an unreadable file (a directory included) too, is one line
    naming the path. *)

val save : path:string -> (int * int * int) list -> unit
(** Write a trace atomically (via {!Mac_sim.Durable}). *)
