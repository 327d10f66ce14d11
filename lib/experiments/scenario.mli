(** One simulated scenario: an algorithm against an adversary, with the
    claims it is expected to witness.

    A scenario bundles the run parameters with a list of checks evaluated on
    the finished run (latency under a Table-1 bound, queue bound, energy cap,
    stability verdict, protocol cleanliness). The CLI prints one line per
    outcome and writes {!outcome_json} rows; the test suite asserts
    [passed].

    A {!spec} is a value: each run builds its adversary afresh from the
    [pattern] maker, so one spec drives any number of identical runs
    (engine and oracle, a retry, a resume, two domains at once).
    {!config}, {!start} and {!simulate} are the one path from a spec to
    the engine. *)

type spec = {
  id : string;
  algorithm : Mac_channel.Algorithm.t;
  n : int;
  k : int;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pattern : unit -> Mac_adversary.Pattern.t;
      (** called once per run, for fresh cursor state *)
  pacing : Mac_adversary.Adversary.pacing;
  rounds : int;
  drain : int;
  faults : Mac_faults.Fault_plan.t option;
}

val spec_q :
  id:string ->
  algorithm:Mac_channel.Algorithm.t ->
  n:int -> k:int ->
  rate:Mac_channel.Qrat.t -> burst:Mac_channel.Qrat.t ->
  pattern:(unit -> Mac_adversary.Pattern.t) ->
  ?pacing:Mac_adversary.Adversary.pacing ->
  rounds:int -> ?drain:int ->
  ?faults:Mac_faults.Fault_plan.t -> unit -> spec
(** Defaults: greedy pacing, drain = rounds/2, no faults. Rates are
    exact: a scenario built from a [Bounds._q] threshold sits precisely on
    the paper's frontier. *)

val scaled : scale:[ `Quick | `Full ] -> quick:'a -> full:'a -> 'a
(** The value for an experiment scale: [`Quick] for the test suite and
    [--quick], [`Full] for the paper-scale runs. *)

val config : spec -> Mac_sim.Engine.config
(** The spec's engine configuration: its rounds, drain and fault plan,
    the schedule cross-check on for oblivious algorithms, and strict
    unless the fault plan is non-empty (stranding is expected when
    consumers crash, so violations are counted, not raised). Everything
    else is the engine's default; callers add sinks, checkpoints and
    telemetry with a record update. *)

val start :
  ?resume:Mac_sim.Engine.snapshot ->
  ?config:Mac_sim.Engine.config ->
  spec ->
  Mac_sim.Engine.session
(** {!Mac_sim.Engine.start} on the spec with a fresh adversary (named
    ["pattern@(rho,beta)"], the adversary's default); [config] defaults to
    {!config}[ spec] and must keep its [rounds]. *)

val simulate :
  ?resume:Mac_sim.Engine.snapshot ->
  ?config:Mac_sim.Engine.config ->
  spec ->
  Mac_sim.Metrics.summary
(** {!start}, then the session driven to completion: bit-identical to
    {!Mac_sim.Engine.run} with the same adversary. *)

type check = {
  label : string;
  bound : float;     (** [infinity] when the check has no numeric bound *)
  measured : float;
  ok : bool;
}

type outcome = {
  spec : spec;
  summary : Mac_sim.Metrics.summary;
  stability : Mac_sim.Stability.report;
  checks : check list;
  passed : bool;
}

(** Check builders, evaluated against the run's summary and verdict. *)
type checker = Mac_sim.Metrics.summary -> Mac_sim.Stability.report -> check

val latency_under : float -> checker
(** Worst packet delay — counting packets still queued at the end by their
    age — is at most the bound. *)

val queues_under : float -> checker

val cap_at_most : int -> checker

val clean : checker
(** No protocol violations, no collisions, and nothing left undelivered
    after the drain. *)

val stable : checker

val unstable : checker

val delivered_all : checker

type observer = id:string -> Mac_sim.Sink.t option
(** Experiment drivers call the observer once per scenario with the
    scenario's id; returning a sink attaches it to that run's event stream.
    The sink is closed when the run finishes, even on an exception. *)

val run :
  ?checks:checker list ->
  ?observe:observer ->
  ?telemetry:Mac_sim.Telemetry.Fleet.t ->
  ?heartbeat:(unit -> unit) ->
  spec ->
  outcome
(** {!simulate} under {!config} and the checks evaluated. [observe] may
    attach an event sink to the run; see {!observer}. [telemetry]
    attaches a {!Mac_sim.Telemetry.Fleet} probe: the run publishes a live
    [scenario=<id>] registry on the fleet's cadence and merges it into
    the fleet aggregate when the run finishes. [heartbeat] is forwarded to
    the engine's per-round liveness callback (see
    {!Mac_sim.Engine.config}). *)

val run_batch : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Run a batch of independent thunks across [jobs] worker domains
    (default 1 = sequential, on the calling domain), returning the results
    in thunk order; [jobs] must be at least 1. Every thunk runs exactly
    once. The first raising thunk aborts the batch: thunks not yet started
    are dropped, and its exception is re-raised as itself, with its
    original backtrace. A supervisor drain request surfaces as
    {!Mac_sim.Supervisor.Drained}. Thunks may run on other domains, so
    any state they share must be synchronised; scenario runs are
    shared-nothing, so their outcomes are bit-identical to running the
    thunks sequentially. *)

val sweep :
  ?jobs:int ->
  ?policy:Mac_sim.Supervisor.policy ->
  ?quarantined:(string -> int option) ->
  ?on_event:(Mac_sim.Supervisor.event -> unit) ->
  label:('c -> string) ->
  ('g * 'c list) list ->
  ('g -> 'c -> heartbeat:(unit -> unit) -> 'a) ->
  ('g * (string * 'a Mac_sim.Supervisor.outcome) list) list
(** [sweep ~label groups run] runs [run g c] once per cell [c] of every
    group [g] in one pool of [jobs] workers, so no group waits for the one
    before it to finish. Each cell resolves to its own
    {!Mac_sim.Supervisor.outcome} under [policy] (default
    {!Mac_sim.Supervisor.default_policy}: the first failure aborts and is
    re-raised; a drain request resolves unstarted cells as
    [Error Skipped]). [quarantined] is consulted by label before a cell's
    first attempt. Results are the groups in the order given, each with
    (label, outcome) pairs in cell order. A retried cell reruns the same
    cell value, which replays bit-identically when [run] builds its run
    state from it (as {!run} does from a spec). [run] must call
    [heartbeat] from its inner loop (thread it into {!run}) for watchdog
    liveness. *)

val check_json : check -> string
(** One check as a JSON object. *)

val outcome_json : experiment:string -> outcome -> string
(** One outcome as a row of [table1 --json] / [matrix --json] (experiment
    id, scenario id, verdict, checks, full summary). *)

(** {2 Resumable batches}

    A killed sweep can be resumed by re-running it with the same
    [resume_dir]: scenarios whose marker file is present are skipped and
    their recorded outcome row is replayed byte-for-byte, so the JSON
    output of an interrupted-and-resumed sweep is identical to an
    uninterrupted one. Markers are written atomically (tmp + rename) after
    a scenario completes, never mid-run.

    Completion and quarantine markers share one rule: a magic line
    ([MACDONE 1] or [MACQUAR 1]), then [scenario <id>] with the id
    verbatim, then the marker's own lines. A marker that cannot be read
    (missing, unreadable, or not a regular file: a directory, a FIFO)
    counts as absent, exactly like one that is corrupt or records another
    id; only a regular file is ever opened. *)

type cached = {
  scenario : string;  (** scenario id, recorded verbatim *)
  verdict : string;   (** stability verdict string *)
  succeeded : bool;   (** the recorded [passed] flag *)
  row : string;       (** the exact [outcome_json] line of the original run *)
}

type resumed = Fresh of outcome | Cached of cached

val resumed_id : resumed -> string
val resumed_passed : resumed -> bool
val resumed_verdict : resumed -> string

val resumed_json : experiment:string -> resumed -> string
(** The [--json] row: computed via {!outcome_json} for [Fresh],
    replayed verbatim from the marker for [Cached] (whose stored row
    already embeds the experiment id it was run under). *)

val marker_path : resume_dir:string -> string -> string
(** Where [run_resumable] records a scenario id's completion. Filenames
    map the id through [Mac_sim.Durable.file_stem]; the marker also
    stores the id verbatim, so two ids with one stem cannot satisfy each
    other. *)

val run_resumable :
  ?checks:checker list ->
  ?observe:observer ->
  ?telemetry:Mac_sim.Telemetry.Fleet.t ->
  ?heartbeat:(unit -> unit) ->
  resume_dir:string ->
  experiment:string ->
  spec ->
  resumed
(** Like {!run}, but checks [resume_dir] (created if missing) for a
    completion marker first. On a hit, returns [Cached] without simulating
    (noting the cache hit on [telemetry] when given); on a miss, runs the
    scenario, writes the marker, and returns [Fresh]. An absent marker —
    corrupt, mismatched, unreadable or a FIFO — is a miss and is
    rewritten; a directory at the marker path could never be replaced by
    the marker, so it raises [Invalid_argument] naming the path before
    the scenario runs. *)

(** {2 Quarantine markers}

    A resumable sweep records scenarios that kept failing as
    [<id>.quarantined] files next to the completion markers, so a re-run
    skips them (outcome {!Mac_sim.Supervisor.error.Quarantined}) instead of
    burning their retry budget again. Deleting the file re-admits the
    scenario. *)

val quarantine_path : resume_dir:string -> string -> string

val quarantine_lookup : resume_dir:string -> string -> int option
(** [Some failures] when a valid quarantine marker for the id exists.
    Corrupt, mismatched, unreadable or non-regular markers read as
    [None]. *)

val note_quarantined :
  resume_dir:string -> id:string -> failures:int -> error:string -> unit
(** Atomically record a quarantine marker (creates [resume_dir] if
    missing). *)

val schedule_of :
  Mac_channel.Algorithm.t -> n:int -> k:int ->
  (me:int -> round:int -> bool) option
(** The static schedule of an oblivious algorithm, pre-applied to (n, k) —
    what a saboteur inspects. *)

val worst_delay : Mac_sim.Metrics.summary -> float
(** max of delivered max-delay and the age of the oldest packet left. *)
