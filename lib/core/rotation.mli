(** Round-robin rotations of slots over rounds.

    [slots] slots take turns, each active for [width] consecutive rounds:
    slot [s] is active at round [t] iff [t / width mod slots = s]. The
    oblivious families rotate this way — k-Cycle's groups (width δ),
    k-Clique's set pairs and k-Subsets' threads (width 1) — and every
    closed form their sparse hooks need is a count of a slot's active
    rounds, or its inverse. Rounds are non-negative. *)

type t = private { slots : int; width : int }

val make : slots:int -> width:int -> t
(** Requires [slots >= 1] and [width >= 1]. *)

val count_in : t -> slot:int -> from:int -> until:int -> int
(** The number of rounds in [from, until) at which [slot] is active; 0 on
    an empty range. *)

val nth_from : t -> slot:int -> round:int -> int -> int
(** [nth_from t ~slot ~round j] is the round of [slot]'s [j]-th active
    round at or after [round], counting from 0. *)

val iter_active :
  t -> from:int -> until:int -> ('a -> 'b -> int -> int -> unit) -> 'a -> 'b ->
  unit
(** [iter_active t ~from ~until f a b] calls [f a b slot c] once for every
    slot active at [c > 0] rounds of [from, until), in no particular
    order. It visits only those slots: one per block the range touches,
    or all of them once the range touches [slots] blocks. The context [a]
    and [b] travels as arguments, so a fast-forward made once per run
    allocates nothing per call. *)
