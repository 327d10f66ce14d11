(** Hash tables keyed by [int] under the identity hash.

    Packet ids and station numbers are small, dense integers, so the key
    itself is a perfect hash: a lookup costs one array index and one
    integer comparison, where the generic [Hashtbl] calls the polymorphic
    [caml_hash] and [compare] on every operation. The packet queues and the
    engine's packet registry use it on every injection, transmission and
    delivery. *)

include Hashtbl.S with type key = int
