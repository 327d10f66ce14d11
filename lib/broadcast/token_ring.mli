(** Replicated token state for round-robin-withholding style algorithms.

    A conceptual token travels a fixed cyclic list of member stations. Every
    member keeps its own copy of this structure and feeds it the same channel
    feedback, so the copies stay identical without any token messages: a
    heard message means the holder continues, a silent round means the holder
    is done and the token advances. A completed cycle ends a phase.

    The structure is deterministic; [note_silence]/[note_heard] must be
    called exactly once per round the ring is live (for k-Cycle, rounds in
    which the group is active). *)

type t

val create : members:int array -> t
(** Requires a non-empty array of distinct station names. The token starts
    at [members.(0)], in phase 0. *)

val members : t -> int array

val size : t -> int

val holder : t -> int
(** Station name currently holding the token. *)

val phase : t -> int
(** Completed token cycles. Increments when the token wraps to the first
    member. *)

val note_heard : t -> unit
(** The holder transmitted and was heard: it keeps the token. *)

val note_silence : t -> unit
(** Silent round: the token advances to the next member (possibly ending the
    phase). *)

val note_silences : t -> int -> unit
(** [note_silences t c] is [note_silence] applied [c >= 0] times, in O(1):
    the token advances [c] members and the phase counts the wraps. *)

val silences_until_holder : t -> int -> int
(** The number of silent rounds, in [0, size t), after which the given
    member holds the token. Raises [Not_found] for a non-member. *)

val silences_until_wrap : t -> int
(** The number of silent rounds, in [1, size t], that end the current
    phase. *)
