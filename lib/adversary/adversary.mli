(** A leaky-bucket adversary: a (ρ, β) type, a pacing discipline, and an
    injection pattern.

    Rates and bursts are exact rationals ({!Mac_channel.Qrat}); pacing and
    admission arithmetic never round, so the injection schedule is the
    paper's recurrence for every ρ, dyadic or not.

    Pacing decides how eagerly the adversary spends its bucket:
    - [Greedy] injects the full grant every round — an initial burst of
      ⌊ρ + β⌋ packets, then a sustained ρ per round. This is the worst case
      for most bounds.
    - [Paced] injects ⌊ρ·(t+1)⌋ − ⌊ρ·t⌋ packets in round t, holding the β
      reserve, optionally dumping ⌊β⌋ extra packets in round [burst_at]
      (stress-testing burst absorption mid-execution).

    A [driver] is the per-run bucket state. An adversary value holds its
    pattern, and [start] does not rewind the pattern's cursor, so each run
    needs its own adversary built from a fresh pattern: [Scenario] in the
    experiments library builds one per run from its spec's pattern maker. *)

type pacing =
  | Greedy
  | Paced of { burst_at : int option }

type t = {
  name : string;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pacing : pacing;
  pattern : Pattern.t;
}

val create_q :
  ?name:string ->
  rate:Mac_channel.Qrat.t ->
  burst:Mac_channel.Qrat.t ->
  ?pacing:pacing ->
  Pattern.t ->
  t
(** Default pacing is [Greedy]. The default name combines the pattern name
    and the type (formatted via floats, e.g. ["uniform@(0.5,2)"]). *)

type driver

val start : t -> driver

val spec : driver -> t

val tokens : driver -> Mac_channel.Qrat.t
(** Current bucket level — read-only, for telemetry gauges. *)

type driver_state = {
  tokens : Mac_channel.Qrat.t;
  injected_total : int;
  pattern_state : string;
}
(** A pure-data snapshot of a driver's mutable run state: exact bucket level,
    injection count, and the pattern's serialised cursor. *)

val save_driver : driver -> driver_state
(** Capture the driver's state at a round boundary. *)

val restore_driver : driver -> driver_state -> unit
(** Restore state captured by {!save_driver} onto a freshly started driver of
    the same spec. Raises [Invalid_argument] on a mismatched snapshot. *)

val next_admission : driver -> round:int -> int
(** [next_admission d ~round] is the earliest round [>= round] at which
    {!inject} could admit a packet, assuming one [inject] per round and no
    admissions in between (quiet rounds only refill the bucket). Exact for
    both pacing disciplines: the bucket's climb to one token and the paced
    discipline's next non-zero allowance (including a pending [burst_at])
    are solved in closed form. Never later than the true next admission, so
    the engine may safely skip every round strictly before it. *)

val skip_rounds : driver -> rounds:int -> unit
(** [skip_rounds d ~rounds] advances the driver past [rounds] quiet rounds
    in O(1), bit-identically to calling {!inject} that many times on rounds
    admitting nothing: the bucket refills, the pattern is never consulted,
    counters are untouched. Sound only for rounds strictly before
    {!next_admission}. *)

val inject : driver -> view:View.t -> (int * int) list
(** Injections for the round described by [view] (uses [view.round]); also
    advances the bucket. The returned pairs always satisfy the leaky-bucket
    constraint and [src <> dst]. Proposed pairs violating [src <> dst] are
    dropped (and the tokens not spent). *)
