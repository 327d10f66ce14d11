(** The synchronous multiple-access-channel simulator.

    Each round proceeds exactly as in the paper's model:

    + the adversary injects packets into stations (on or off — injection
      only touches a station's private queue);
    + every station decides its mode; the switched-on count is charged
      against the energy cap;
    + switched-on stations transmit or listen; one transmitter means the
      message is heard by every switched-on station (including the
      transmitter), two or more mean a collision, none means silence;
    + a heard packet whose destination is switched on is delivered and
      disappears; otherwise exactly one switched-on station may adopt it and
      become its relay; a heard packet that is neither delivered nor adopted
      is a protocol violation ("stranded") — it is returned to the
      transmitter and counted;
    + switched-off stations observe nothing.

    {b Run state and phases.} A run is one explicit state record — queues,
    algorithm states, the adversary driver, mode memory, fault flags and
    the sparse caches — advanced by five named phases per concrete round,
    the same five that telemetry times ([eear_phase_ns]):
    {i inject} (the adversary's admissions), {i faults} (this round's
    fault actions), {i resolve} (mode decisions, the energy charge, the
    switched-on stations' actions and the channel outcome), {i deliver}
    (delivery, reactions, adoption, offline ticks and the end of the
    round), and {i observe} (the time spent in the sink, spread over the
    other four). Both modes build one ascending on-list per round, which
    acts, reactions and the previous-round bookkeeping iterate; only the
    mode decision and the dense offline tick differ by mode. Between
    rounds the driver may instead retire a provably silent stretch in one
    analytic skip (sparse {!mode}), then takes any due checkpoint and
    telemetry sample. A {!session} is that state stopped at a round boundary.

    The engine verifies the algorithm's declared contract while running:
    transmitting a packet not in one's queue, a non-plain message from a
    plain-packet algorithm, adoption by a direct-routing algorithm, adoption
    by the transmitter itself, and (when [check_schedule] is set) an
    oblivious algorithm whose [on_duty] disagrees with its declared static
    schedule all raise [Protocol_violation] when [strict] (the default).
    Conservation — injected = delivered + queued + lost-to-crash, no
    duplicates — is checked at the end of every run.

    {b Faults.} When [config.faults] carries a non-empty
    {!Mac_faults.Fault_plan}, its actions are applied at the top of each
    round, between injection and the mode decisions: a crashed station is
    forced off with its algorithm state frozen (queue retained or dropped
    per the plan; dropped packets are classified lost-to-crash), a
    restarted station rejoins with fresh algorithm state, and jam/noise
    actions force that round's channel resolution to a collision. With an
    absent or empty plan every path is untouched — output is bit-identical
    to the fault-free engine. *)

exception Protocol_violation of string

type mode =
  | Dense  (** visit every station every round (the classical engine) *)
  | Sparse
      (** require the algorithm's closed-form schedule
          ({!Mac_channel.Algorithm.S.sparse}; [Invalid_argument] if absent):
          concrete rounds touch only the stations scheduled on this round or
          on last round, and stretches in which provably nothing happens (no
          admission, no fault, no possible transmission, no crashed station,
          no sink observing) are skipped analytically — the clock, the
          leaky bucket, the metrics and the cadenced side effects (checkpoints,
          telemetry samples) all advance in closed form. Output (events,
          summary, snapshot bytes) is bit-identical to [Dense]; with
          [check_schedule], only concretely-executed rounds are checked. *)
  | Auto  (** [Sparse] when the algorithm supports it, else [Dense] *)

val snapshot_version : int
(** Format version of {!snapshot}; bumped when the snapshot layout changes. *)

type snapshot
(** A pure-data photograph of a run at a round boundary: per-station queues
    (arrival order, with hop counts), encoded algorithm states (via each
    algorithm's {!Mac_channel.Algorithm.S.encode_state}), the adversary
    driver (exact leaky-bucket level and pattern cursor), mode memory, crash
    flags, and a deep copy of the metrics collector — plus identity fields
    (algorithm, n, k, adversary type, fault-plan name, config) that [resume]
    validates. Snapshots are self-contained: holding one and resuming from
    it twice gives two identical runs. Serialise with {!Checkpoint}. *)

val snapshot_round : snapshot -> int
(** The next round the resumed run will execute. *)

val snapshot_drained : snapshot -> int
(** Drain rounds already executed (0 while in the injection phase). *)

val snapshot_algorithm : snapshot -> string

val snapshot_n : snapshot -> int

val snapshot_k : snapshot -> int

val snapshot_rounds : snapshot -> int
(** The run's configured injection-round count. *)

type config = {
  rounds : int;          (** rounds with injection *)
  drain_limit : int;     (** additional injection-free rounds, stopping early
                             once all queues are empty (0 = no drain) *)
  sample_every : int;    (** queue-size sampling period; [0] = auto *)
  check_schedule : bool; (** cross-check [on_duty] against [static_schedule] *)
  strict : bool;         (** raise on protocol violations instead of counting *)
  sink : Sink.t option;
  (** when set, receives the full typed event stream of the run — every
      mode edge, transmission, channel outcome and round boundary. Combine
      sinks with {!Sink.tee} (a bounded {!Mac_channel.Trace} ring rides
      along as {!Sink.ring}); the sink is {b not} closed by the engine. *)
  faults : Mac_faults.Fault_plan.t option;
  (** when set (and non-empty), fault actions are injected into the round
      loop — see the module docs. A plan naming a station [>= n] raises
      [Protocol_violation]. Crash-heavy plans usually want
      [strict = false]: a packet heard while its only consumers are
      crashed strands, which strict mode treats as a protocol bug. *)
  checkpoint_every : int;
  (** when positive (and [on_checkpoint] is set), a snapshot is taken at
      every round boundary divisible by this period — injection and drain
      rounds both count. [0] disables checkpointing. *)
  on_checkpoint : (snapshot -> unit) option;
  (** receives each periodic snapshot (typically to persist it via
      {!Checkpoint.write}). Taking a snapshot reads but never writes engine
      state, so a checkpointed run is bit-identical to an unobserved one. *)
  telemetry : Telemetry.probe option;
  (** when set, the engine refreshes the probe's registry (backlog,
      energy, throughput, GC and phase-timing metrics — see
      {!Telemetry.Names}) at every round boundary divisible by
      [probe.every], plus once at the end of the run. Each sample emits an
      [Event.Telemetry] through the sink (when one is installed) and
      then calls [probe.on_sample]. Sampling reads but never writes
      engine state: a run with telemetry on produces the same summary,
      checkpoints, and (telemetry events aside) event stream as one with
      it off. [None] leaves the round loop untouched. *)
  heartbeat : (unit -> unit) option;
  (** when set, called once at every round boundary (injection and drain
      rounds alike). Used by {!Supervisor} watchdogs as a liveness signal
      and as a cooperative cancellation point — the callback may raise to
      abandon the run. [None] (the default) leaves the round loop
      untouched. In sparse mode an analytic skip beats once per skipped
      stretch rather than once per round; stretches are bounded by the
      checkpoint and telemetry cadences when either is configured. *)
  mode : mode;
  (** execution mode; see {!mode}. Snapshots are mode-agnostic: a
      checkpoint written under one mode resumes under another and the runs
      stay bit-identical. *)
}

val default_config : rounds:int -> config
(** No drain, auto sampling, no schedule check, strict, no sink, no
    faults, no checkpointing, no telemetry, [Dense] mode. *)

type session
(** An in-flight run stopped at a round boundary: the same engine state
    {!run} drives internally, exposed for incremental (step-wise) driving.
    The serve layer advances many sessions concurrently, feeding external
    injections between batches; a session advanced with an unbounded
    budget and then {!finish}ed is bit-identical (events, summary,
    snapshots) to the closed-loop {!run}. *)

val start :
  ?config:config ->
  ?resume:snapshot ->
  algorithm:Mac_channel.Algorithm.t ->
  n:int ->
  k:int ->
  adversary:Mac_adversary.Adversary.t ->
  rounds:int ->
  unit ->
  session
(** Validate the configuration (and snapshot, when resuming), build all
    engine state, and stop before executing any round. Argument contract
    is exactly {!run}'s. *)

val advance : session -> max_steps:int -> int
(** Execute up to [max_steps] driver iterations (a concrete round, or one
    analytic skip covering many rounds, per iteration) and return the
    number executed. Injection rounds run first, then drain rounds; the
    return value is less than [max_steps] only when the run is complete.
    Always returns at a round boundary, so {!session_snapshot} is valid
    after every call. Raises [Invalid_argument] after {!finish}. *)

val session_round : session -> int
(** The next round to execute (mirrors {!snapshot_round}). *)

val session_backlog : session -> int
(** Packets currently queued across all stations. *)

val session_complete : session -> bool
(** True once {!advance} can do no more work: the injection phase ran to
    [config.rounds] and the drain phase hit its limit or emptied the
    queues. *)

val session_snapshot : session -> snapshot
(** Snapshot the session at its current round boundary — same contract as
    the [on_checkpoint] snapshots. *)

val finish : session -> Metrics.summary
(** Final telemetry sample, conservation/duplicate checks, and the
    summary — what {!run} does after its driver loop. Raises
    [Invalid_argument] unless {!session_complete}, or if called twice. *)

val run :
  ?config:config ->
  ?resume:snapshot ->
  algorithm:Mac_channel.Algorithm.t ->
  n:int ->
  k:int ->
  adversary:Mac_adversary.Adversary.t ->
  rounds:int ->
  unit ->
  Metrics.summary
(** [run ~algorithm ~n ~k ~adversary ~rounds ()] simulates [rounds] rounds.
    When a config is given its [rounds] field must equal the [~rounds]
    argument — a mismatch raises [Invalid_argument] (historically
    [config.rounds] silently won). [k] is the offered energy cap; the energy
    accountant checks against the algorithm's [required_cap ~n ~k].

    When [resume] is given, the run continues from that snapshot instead of
    round 0 and produces the exact suffix of the uninterrupted run: the event
    stream emitted to [config.sink] from the snapshot round on, and the final
    summary, are bit-identical to what the straight-through run produces.
    The snapshot must have been taken by a run with the same algorithm
    (name and [state_version]), n, k, adversary (name, exact type, pacing,
    pattern), fault plan and config ([rounds], [drain_limit], resolved
    [sample_every]) — any mismatch raises [Invalid_argument]. *)
