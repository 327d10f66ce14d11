(** A station's private packet queue.

    The paper lets a station scan its queue and access any packet in
    negligible time, and transmit queued packets in arbitrary order; this
    structure therefore supports removal of arbitrary packets, per-destination
    counting (needed by Count-Hop and Adjust-Window gossip), and
    arrival-order iteration (algorithms schedule packets in the order of
    their injection / adoption). Adopted packets count as newly arrived:
    their position in arrival order is the adoption time, not the original
    injection, and a packet removed and added again goes to the tail.

    Each queued packet is one mutable node, linked into two circular
    doubly-linked rings: the queue's arrival ring and the ring of its
    destination. Nodes are found by packet id, and destination rings by
    destination, through identity-hashed {!Int_table}s that hold only the
    packets and destinations present, so memory is O(live packets) — never
    O(n) per queue, which is what lets the engine build n = 10⁵ queues.
    [add], [remove], [mem], [size], [count_to], [oldest] and [oldest_to]
    are O(1) and allocate at most the node and its table entries; the
    [*_such] queries, [fold] and [iter] are plain loops over a ring, and
    [iter_suffix] visits only the suffix it reports.

    Callbacks passed to [fold], [iter], [iter_suffix], [oldest_such],
    [oldest_to_such] and [exists_such] must not add to or remove from the
    queue they traverse. *)

type t

val create : n:int -> t
(** [create ~n] is an empty queue for a system of [n] stations (destinations
    are in [0, n-1]). *)

val add : t -> Packet.t -> unit
(** Appends [p] at the tail of the arrival order and of its destination's
    order. Raises [Invalid_argument] if a packet with the same id is already
    present. *)

val remove : t -> Packet.t -> bool
(** [remove q p] removes the packet with [p]'s id; [false] if absent. *)

val mem : t -> Packet.t -> bool

val size : t -> int

val is_empty : t -> bool

val count_to : t -> int -> int
(** [count_to q d] is the number of queued packets with destination [d]. *)

val dests : t -> int list
(** The destinations with at least one queued packet, ascending. O(d log d)
    in the number [d] of distinct destinations present — used by sparse
    [next_transmission] hooks to enumerate the pairs that could transmit. *)

val oldest : t -> Packet.t option
(** Earliest-arrived packet. *)

val oldest_to : t -> int -> Packet.t option
(** Earliest-arrived packet with the given destination. *)

val oldest_such : t -> (Packet.t -> bool) -> Packet.t option
(** Earliest-arrived packet satisfying the predicate; scans the arrival
    order until the first match. *)

val oldest_to_such : t -> int -> (Packet.t -> bool) -> Packet.t option
(** Earliest-arrived packet with the given destination satisfying the
    predicate; scans only that destination's packets. *)

val exists_such : t -> ('a -> 'b -> Packet.t -> bool) -> 'a -> 'b -> bool
(** [exists_such q pred a b] is whether some queued packet satisfies
    [pred a b], scanning the arrival order until the first match. The
    predicate's context travels as arguments, so a top-level [pred]
    allocates nothing — for queries asked on every skip. *)

val fold : t -> init:'a -> f:('a -> Packet.t -> 'a) -> 'a
(** Folds in arrival order. *)

val iter : t -> f:(Packet.t -> unit) -> unit
(** Iterates in arrival order. *)

val snapshot_ids : t -> (int, unit) Hashtbl.t -> unit
(** [snapshot_ids q ids] resets [ids] to hold exactly the ids of the
    packets queued in [q] now: the old-packet set an algorithm fixes at
    the start of a phase or window. *)

val iter_suffix : t -> (Packet.t -> bool) -> f:(Packet.t -> unit) -> unit
(** [iter_suffix q pred ~f] walks back from the newest packet while [pred]
    holds, then iterates [f] oldest-first over that run: the maximal
    arrival-order suffix whose packets all satisfy [pred]. It costs
    O(run + 1) — the packets before the suffix are never visited — and
    allocates nothing. [pred] sees every packet of the run and the one
    before it; [f] must not add to or remove from the queue. *)

val to_list : t -> Packet.t list
(** Queued packets in arrival order. *)

val drain : t -> Packet.t list
(** [drain q] empties the queue in one pass and returns the packets in
    arrival order: equivalent to [to_list q] followed by [remove]-ing each
    returned packet. The queue is reusable afterwards. *)
