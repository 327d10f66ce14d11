(** Bounded in-memory event trace for debugging simulations.

    A trace keeps the last [capacity] formatted events in a ring buffer;
    [dump] returns them oldest-first. *)

type t

val create : ?capacity:int -> unit -> t

val event : t -> round:int -> string -> unit
(** Record a pre-formatted event. *)

val dump : t -> (int * string) list
(** Retained [(round, event)] pairs, oldest first. *)
