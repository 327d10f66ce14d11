(** Deterministic fault plans: what goes wrong, and when.

    A plan is a fixed schedule of fault actions, resolved before the run
    starts — either scripted explicitly, parsed from a plan file, or
    generated pseudo-randomly from a seed via {!Mac_channel.Rng}. The
    engine consumes it round by round ({!actions}); an empty plan leaves
    the round loop bit-identical to the fault-free engine.

    The fault vocabulary matches the regimes studied by the adjacent
    literature (restrained/jammed channels, failing stations):

    - {b crash}: the station goes dark — forced off, algorithm state
      frozen, [offline_tick] suppressed. Its queue is either retained
      (packets wait, possibly forever) or dropped (packets are counted
      as lost-to-crash, never silently discarded). The adversary may
      keep injecting into a crashed station's queue; those packets are
      admitted and counted normally.
    - {b restart}: a crashed station reboots with a fresh algorithm
      state ([create ~n ~k ~me]) and rejoins from that round's mode
      decision. Restarting a live station is a no-op, as is crashing a
      station twice.
    - {b jam}: every transmission of the round reads as a collision to
      all listeners (a single transmitter included); with no
      transmitter the round stays silent, but the jam is still counted
      (the fault fired — [jammed_rounds] and the [Round_jammed] event
      record it either way).
    - {b noise}: the round reads as a collision even when nobody
      transmitted — spurious channel activity. *)

type queue_policy =
  | Retain  (** the crashed station's queue survives the crash *)
  | Drop    (** queued packets are lost (classified lost-to-crash) *)

type action =
  | Crash of { station : int; queue : queue_policy }
  | Restart of { station : int }
  | Jam
  | Noise

type t

val empty : t
(** The plan with no faults. [Engine.run] with this plan is bit-identical
    (summary and event stream) to a run with no plan at all. *)

val is_empty : t -> bool

val name : t -> string

val size : t -> int
(** Total number of scheduled actions: every round of every jam or noise
    range counts, overlapping ranges included. *)

val max_station : t -> int
(** Largest station index named by any crash/restart action; [-1] if the
    plan touches no station. Callers should reject plans with
    [max_station >= n] before running — see {!for_stations}. *)

val for_stations : n:int -> t -> (t, string) result
(** [Ok plan] when every station the plan names is below [n]; otherwise a
    one-line error naming the plan, the station and [n]. *)

val actions : t -> round:int -> action list
(** The actions scheduled for [round]: its crashes and restarts in
    application order, then [Jam] and [Noise] (each at most once) when a
    range covers it; [] for rounds without faults, allocation-free. *)

val next_action_round : t -> round:int -> int option
(** The first round [>= round] with at least one scheduled action, [None]
    if no action remains. O(log faults) — lets the engine's skip-ahead
    jump over fault-free stretches without probing each round. *)

val scripted : name:string -> (int * action) list -> t
(** [scripted ~name entries] schedules each [(round, action)] pair.
    Entries may be given in any order; crashes and restarts within a round
    apply in list order (see {!actions}). Raises [Invalid_argument] on a
    negative round or station. *)

val random :
  seed:int ->
  n:int ->
  rounds:int ->
  ?crash_rate:float ->
  ?jam_rate:float ->
  ?noise_rate:float ->
  ?restart_after:int ->
  ?queue:queue_policy ->
  unit ->
  t
(** A seeded pseudo-random plan over [rounds] rounds for [n] stations,
    generated with {!Mac_channel.Rng} (equal arguments give equal
    plans, bit for bit). Each round independently: with probability
    [crash_rate] a uniformly chosen currently-alive station crashes
    (with [queue] policy, default [Retain]); with probability
    [jam_rate] the round is jammed; with probability [noise_rate] the
    round carries spurious noise. [restart_after = d > 0] schedules a
    restart [d] rounds after each crash; [0] (the default) means
    crash-stop — stations never return. Raises [Invalid_argument] on
    rates outside [0, 1], [n <= 0], negative [rounds] or negative
    [restart_after]. *)

val of_string : ?name:string -> string -> (t, string) result
(** Parse a plan script: one directive per line, [#] starts a comment,
    blank lines are skipped.

    {v
    crash ROUND STATION [keep|drop]   # default keep
    restart ROUND STATION
    jam ROUND[..ROUND]
    noise ROUND[..ROUND]
    v}

    A range is kept as one interval, so its memory does not grow with
    its length. Errors are one-line ["line N: message"] descriptions; a
    range whose length, or a plan whose {!size}, overflows [int] is one. *)

val of_file : string -> (t, string) result
(** {!of_string} on the file's contents; an unreadable file (a directory
    included) produces [Error] with one line ["path: reason"]. *)
