(** Injection patterns: where the adversary places packets.

    A pattern proposes up to [budget] injections for the round as
    (source, destination) pairs with [src <> dst]; the leaky bucket in
    {!Adversary} has already capped [budget]. Patterns may be stateful
    (cycling counters, PRNGs, adaptive logic reading the view). *)

type t = {
  name : string;
  generate : round:int -> budget:int -> view:View.t -> (int * int) list;
  save : unit -> string;
      (** Serialise the pattern's mutable cursor (RNG state, counters, fired
          flags) for a checkpoint. Stateless patterns return [""]. *)
  load : string -> unit;
      (** Restore a cursor previously produced by {!save} on a freshly
          constructed pattern of the same shape. Raises [Invalid_argument]
          on a malformed or mismatched state string. *)
}

val make :
  ?save:(unit -> string) ->
  ?load:(string -> unit) ->
  name:string ->
  (round:int -> budget:int -> view:View.t -> (int * int) list) ->
  t
(** [make ~name gen] builds a pattern. Stateful patterns should provide
    [save]/[load] so checkpoint/resume reproduces their stream exactly; the
    defaults are the empty state (and [load] rejecting non-empty input). *)

val cat : string list -> string
(** Length-prefixed concatenation of state strings, for composite patterns
    that nest inner pattern states. Inverse of {!uncat}. *)

val uncat : string -> string list
(** Split a {!cat}-encoded string back into its parts. Raises
    [Invalid_argument] on malformed input. *)

val uniform : n:int -> seed:int -> t
(** Source and destination uniform at random (distinct). *)

val flood : n:int -> victim:int -> t
(** Every packet is injected into [victim]; destinations cycle over the other
    stations. The Orchestra worst case: one station receives all traffic. *)

val pair_flood : src:int -> dst:int -> t
(** Every packet goes from [src] to [dst] — the Theorem 9 shape. *)

val round_robin : n:int -> t
(** Source cycles over stations, destination is the cyclic successor. *)

val hotspot : n:int -> seed:int -> hot:int -> bias:float -> t
(** A fraction [bias] of packets is destined to station [hot]; the rest are
    uniform. Sources uniform. *)

val alternating : src:int -> dst_odd:int -> dst_even:int -> t
(** Packets are injected into [src]; destination alternates with round parity
    (Case I of Lemma 1). *)

val to_busiest : n:int -> t
(** Adaptive: injects into the station that currently has the longest queue
    (ties to the lowest name), destination cycles over other stations. Feeds
    Orchestra's big-conductor path. *)

val mix : seed:int -> (int * t) list -> t
(** [mix ~seed weighted] draws each packet's source pattern with probability
    proportional to its weight. Weights must be positive. *)

val duty_cycle : busy:int -> idle:int -> t -> t
(** Traffic with silence gaps: the inner pattern is used during [busy]-round
    stretches, alternating with [idle] silent rounds (the leaky bucket keeps
    refilling, so each busy stretch starts with a burst — a realistic
    office-LAN shape). *)

type feed = {
  push : at:int -> src:int -> dst:int -> unit;
      (** Enqueue an injection: eligible from round [at] on (use [at:0] for
          "as soon as admissible"). Raises [Invalid_argument] on [src = dst]
          or negative arguments. Safe to call from another domain while a
          run is in flight. *)
  pending : unit -> int;
      (** Injections queued but not yet handed to the engine. *)
  since_save : unit -> (int * int * int) list;
      (** The [(at, src, dst)] pushes since the pattern's state was last
          saved or loaded, oldest first: what a session resumed from that
          state must be pushed again to see every injection. *)
}

val external_queue :
  ?name:string -> ?initial:(int * int * int) list -> unit -> feed * t
(** [external_queue ()] is the externally-fed pattern: a mutex-guarded FIFO
    of scheduled [(at, src, dst)] injections — pushed live through the
    {!feed} (serve mode) or preloaded via [initial] (trace replay). Each
    round, [generate] pops from the head while the head's [at] has been
    reached, up to the leaky bucket's budget; items beyond the budget stay
    queued and are offered again next round, so admission timing follows
    the bucket exactly as for generator patterns. Head-blocking FIFO: an
    item whose [at] lies in the future blocks everything behind it, making
    replay order deterministic. [save]/[load] carry the not-yet-injected
    remainder ([name], default ["external"], is part of checkpoint
    identity). *)

val one_shot : at:int -> src:int -> dst:int -> t
(** Injects a single packet (src, dst) at the first opportunity in round
    [at] or later, and nothing else — for probing the fate of one packet
    under background traffic (combine with [mix], which will offer it a
    slot eventually). *)
