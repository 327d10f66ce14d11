(** The resilience suite: Table-1 algorithms outside the clean model.

    The paper's model has no station failures and no channel noise; this
    suite measures, empirically, what each algorithm does when that
    assumption breaks. Every subject runs at an operating point safely
    inside its proven stability region, then the same run is repeated
    under a sweep of deterministic fault plans — seeded random
    crash-restart at two rates, crash-with-queue-drop, a scripted
    crash-stop, a scripted jam window, and random jamming — and the
    degradation columns of {!Mac_sim.Metrics.summary} (packets lost,
    post-fault queue growth, recovery time after the last fault) land in
    one report row per (algorithm, plan) cell.

    No outcome carries pass/fail checks: the suite reports degradation,
    it does not assert bounds the paper never claimed. *)

val suite :
  ?observe:Scenario.observer ->
  ?telemetry:Mac_sim.Telemetry.Fleet.t ->
  ?jobs:int ->
  ?policy:Mac_sim.Supervisor.policy ->
  ?on_event:(Mac_sim.Supervisor.event -> unit) ->
  scale:[ `Quick | `Full ] ->
  unit ->
  Mac_sim.Report.t * (string * Scenario.outcome Mac_sim.Supervisor.outcome) list
(** Run the full sweep (4 algorithms x 7 plans) on [jobs] worker domains
    (default 1) through {!Scenario.sweep}. Outcome ids are
    ["resilience/<algorithm>/<plan>"]; the observer, if given, is called
    once per cell with that id, and [telemetry] attaches a fleet probe to
    every cell. Each cell resolves to its own {!Mac_sim.Supervisor.outcome}
    under [policy] (default {!Mac_sim.Supervisor.default_policy}: the
    first failure aborts and re-raises); the report has rows for the
    successful cells only. Rows and outcomes keep declaration order and
    match a sequential run bit for bit, retried cells included. *)
