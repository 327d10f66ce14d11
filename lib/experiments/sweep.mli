(** Empirical stability-frontier location by bisection.

    Table 1 predicts a sharp rate threshold for every algorithm; [bisect_q]
    pins the empirical frontier between a known-stable and a known-unstable
    rate by repeated simulation. Brackets and midpoints are exact rationals
    ({!Mac_channel.Qrat}), so the located thresholds are properties of the
    rates themselves, not IEEE-754 artifacts. [bisect_q] serves the
    threshold-explorer example and the frontier tests; {!frontiers} is the
    supervised search behind figure F5 and [matrix --thresholds]. *)

val stability_probe_q :
  algorithm:Mac_channel.Algorithm.t ->
  n:int ->
  k:int ->
  pattern:(unit -> Mac_adversary.Pattern.t) ->
  ?burst:Mac_channel.Qrat.t ->
  rounds:int ->
  unit ->
  rho:Mac_channel.Qrat.t ->
  bool
(** [stability_probe_q ... () ~rho] simulates [rounds] injection rounds of
    the algorithm against a fresh copy of the pattern at exact rate [rho]
    (default burst 4) and reports whether the backlog stayed bounded.
    Deterministic. *)

val bisect_q :
  ?steps:int ->
  lo:Mac_channel.Qrat.t ->
  hi:Mac_channel.Qrat.t ->
  (rho:Mac_channel.Qrat.t -> bool) ->
  Mac_channel.Qrat.t * Mac_channel.Qrat.t
(** [bisect_q ~lo ~hi probe] narrows the frontier bracket with exact
    midpoints: requires [probe ~rho:lo = true] and [probe ~rho:hi = false]
    (checked — raises [Invalid_argument] otherwise) and returns [(lo', hi')]
    with [hi' − lo' = (hi − lo) / 2^steps] (default 8 steps) such that the
    probe is stable at [lo'] and unstable at [hi']. *)

(** Where a stability frontier was located. *)
type frontier =
  | Bracket of Mac_channel.Qrat.t * Mac_channel.Qrat.t
      (** stable at the first rate, unstable at the second *)
  | Stable_to_ceiling of Mac_channel.Qrat.t
      (** stable even at the bracket's upper rate *)
  | Unstable_at_floor of Mac_channel.Qrat.t
      (** unstable already at the bracket's lower rate *)

val frontier_to_string : frontier -> string
(** ["frontier in (lo, hi]"], ["stable up to hi"] or
    ["unstable already at lo"]. *)

val frontiers :
  ?jobs:int ->
  ?policy:Mac_sim.Supervisor.policy ->
  ?on_event:(Mac_sim.Supervisor.event -> unit) ->
  ?telemetry:Mac_sim.Telemetry.Fleet.t ->
  ?steps:int ->
  (string
  * Mac_channel.Qrat.t
  * Mac_channel.Qrat.t
  * (rho:Mac_channel.Qrat.t -> bool))
  list ->
  (string * frontier Mac_sim.Supervisor.outcome) list
(** [frontiers brackets] locates one frontier per labelled
    [(label, lo, hi, probe)] bracket, each bracket one job of
    {!Scenario.sweep} on [jobs] supervised workers (default 1), and
    returns (label, frontier) pairs in input order. Each endpoint is
    probed once: unstable at [lo] is [Unstable_at_floor lo], stable at
    [hi] is [Stable_to_ceiling hi], and otherwise the bracket is narrowed
    by [steps] exact midpoints (default 8), as {!bisect_q} does, to a
    [Bracket] — [2 + steps] probes per proper bracket. Each bracket
    resolves to its own {!Mac_sim.Supervisor.outcome} under [policy]
    (default {!Mac_sim.Supervisor.default_policy}: the first failure
    aborts and re-raises). The watchdog heartbeat ticks after every probe
    run, so a bracket counts as live while its simulations keep
    finishing. Probe runs are throwaway simulations that never publish
    per-scenario registries; [telemetry], when given, counts each probe on
    the fleet's {!Mac_sim.Telemetry.Names.bisect_probes} counter.
    Deterministic probes locate the same frontiers at every [jobs]. *)
