(** The cross-paper algorithm matrix (ROADMAP item 4).

    Table 1 reproduces the source paper's rows one algorithm at a time;
    this driver crosses {e every} algorithm in the repository — the
    routing algorithms of the source paper plus the broadcast families of
    the sibling papers (withholding rings, MBTF, full-sensing tree
    search, acknowledgment-based TDMA, randomised backoff) — with a small
    set of named adversaries (rate/burst/pacing/pattern) and fault plans
    (clean channel, jam+noise, crash+restart), and reports a stability
    verdict per cell.

    The matrix is a {!Table1.t} assembled with {!Table1.row}, so
    {!Table1.sweep} runs it like any Table-1 row: parallel jobs with
    bit-identical output, byte-identical resume from a marker directory,
    and supervision with retries/watchdog/quarantine. Cells carry no pass/fail
    checks — the verdicts are the data — so [passed] only reflects clean
    completion.

    An optional second stage measures each (algorithm, adversary)
    stability frontier with {!Sweep.frontiers} on a clean channel. *)

type algo_axis = {
  algo_id : string;  (** a {!Registry} name *)
  n : int;
  k : int;
  seed : int;  (** {!Registry.algorithm}'s seed *)
}

type adversary_axis = {
  adv_id : string;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pacing : Mac_adversary.Adversary.pacing;
  pattern : n:int -> Mac_adversary.Pattern.t;
      (** Fresh pattern state per call — one call per run. *)
}

type fault_axis = {
  fault_id : string;
  plan : n:int -> rounds:int -> Mac_faults.Fault_plan.t option;
}

val algorithms : algo_axis list
val adversaries : adversary_axis list
val faults : fault_axis list

val cell_id : algo_axis -> adversary_axis -> fault_axis -> string
(** ["matrix/<algo>/<adversary>/<fault>"] — also the resume-marker key. *)

val row : Table1.t
(** The full matrix as a Table-1 row (id ["matrix"]). *)

val row_for : only:(string -> bool) -> Table1.t
(** The matrix restricted to the algorithms whose [algo_id] satisfies
    [only] — smoke jobs and tests slice the matrix with this. *)

val threshold_id : algo_axis -> adversary_axis -> string
(** ["matrix-th/<algo>/<adversary>"]. *)

val thresholds :
  ?jobs:int ->
  ?policy:Mac_sim.Supervisor.policy ->
  ?on_event:(Mac_sim.Supervisor.event -> unit) ->
  ?only:(string -> bool) ->
  scale:[ `Quick | `Full ] ->
  unit ->
  (string * Sweep.frontier Mac_sim.Supervisor.outcome) list
(** Locate each (algorithm, adversary) frontier on a clean channel
    between rates 1/64 and 1 with {!Sweep.frontiers}, one supervised job
    per pair labelled by {!threshold_id} (probes heartbeat the watchdog).
    A frontier outside that range comes back as
    [Stable_to_ceiling 1] or [Unstable_at_floor 1/64]. Deterministic:
    results depend only on the axes and [scale]. *)

val frontier_json : label:string -> Sweep.frontier -> string

val csv_header : string

val csv_line : Scenario.resumed -> string
(** One cell as a CSV line (algorithm, adversary, fault, verdict,
    passed); derivable from both [Fresh] and [Cached] cells, so resumed
    sweeps export byte-identical CSV. *)

val is_algo_id : string -> bool
val algo_ids : unit -> string list
