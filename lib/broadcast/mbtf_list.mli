(** Replicated station-list state for Move-Big-To-Front (Chlebus, Kowalski,
    Rokicki 2009, the paper's reference [17]).

    The token traverses an ordered list of members. When the holder
    announces it is big (it has at least the threshold many packets), it
    moves to the front of the list and keeps the token, transmitting again
    next round; a non-big transmission or a silent round passes the token to
    the next list position. All members update identical copies from the
    shared feedback (the big announcement is a control bit in the heard
    message). *)

type t

val create : members:int array -> t

val holder : t -> int

val order : t -> int array
(** Current list order, front first (for tests). *)

val note_heard_big : t -> unit
(** The holder announced big: move it to the front; it keeps the token. *)

val note_heard_small : t -> unit
(** The holder transmitted without the big flag: token advances. *)

val note_silence : t -> unit
(** Silent round: token advances. *)

val note_silences : t -> int -> unit
(** [note_silences t c] is [note_silence] applied [c >= 0] times, in O(1):
    the list order is unchanged and the token moves [c] positions on. *)

val silences_until_holder : t -> int -> int
(** The number of silent rounds, in [0, length), after which the given
    member holds the token. Raises [Not_found] for a non-member. *)
