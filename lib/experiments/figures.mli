(** Sweep experiments ("figures" the theory implies).

    The paper has no plots; these sweeps chart the claims of Table 1 the way
    an evaluation section would: where each algorithm's stability frontier
    falls (F1), how latency scales with n (F2), the latency–energy tradeoff
    across caps the conclusion (§7) raises as an open question (F3), and the
    linear burstiness sensitivity (F4). F5 bisects the empirical frontiers
    of the oblivious disciplines, and the ablations A1–A3 remove one
    mechanism the proofs rely on at a time.

    Each figure yields a rendered table plus the raw outcomes (the test
    suite asserts selected points). *)

type supervised = {
  report : Mac_sim.Report.t;
  (** Rows for the successful points only, in declaration order. *)
  outcomes : Scenario.outcome list;
  (** The successful outcomes, in declaration order (empty for F5, whose
      points are bisection brackets, not single scenarios). *)
  failures : (string * Mac_sim.Supervisor.error) list;
  (** Points that kept failing under the policy: (point id, error). *)
}

type t = {
  id : string;
  title : string;
  run :
    ?observe:Scenario.observer ->
    ?telemetry:Mac_sim.Telemetry.Fleet.t ->
    ?jobs:int ->
    ?policy:Mac_sim.Supervisor.policy ->
    ?on_event:(Mac_sim.Supervisor.event -> unit) ->
    scale:[ `Quick | `Full ] ->
    unit ->
    supervised;
  (** Runs the figure's points — for F5, its bisection brackets — on
      [jobs] worker domains (default 1) through {!Scenario.sweep}; rows and
      outcomes keep declaration order and match a sequential run bit for
      bit. [policy] defaults to {!Mac_sim.Supervisor.default_policy} (the
      first failure aborts the figure); under [keep_going] failed points
      land in [failures], and a drain request reports unstarted points as
      [Skipped] there. A retried point reruns its spec and replays
      bit-identically. [observe] is forwarded to each plotted point's
      {!Scenario.run}, keyed by scenario id; F5 ignores it (bisection
      probes are throwaway runs).
      [telemetry] attaches a fleet probe to every plotted point; F5 only
      counts its probe runs on the fleet's bisect-probes counter. *)
}

val figure :
  id:string ->
  title:string ->
  header:string list ->
  (scale:[ `Quick | `Full ] ->
  (Scenario.spec * (Scenario.outcome -> string list)) list) ->
  t
(** [figure ~id ~title ~header points] is the figure whose [run] sweeps
    the specs of [points ~scale] through {!Scenario.sweep}, each point one
    {!Scenario.run} labelled by its spec id, and renders each successful
    point's row (the point's function of its outcome) under [header], in
    declaration order. Every figure but F5 is built this way, and so is
    {!Resilience.figure}. *)

val frontier : t
(** F1: verdict and queue-growth slope around each algorithm's threshold;
    below it adversaries are floods, above it the matching saboteur. *)

val scaling : t
(** F2: worst-case packet delay against the instantiated bound as n grows. *)

val energy : t
(** F3: delivered throughput, energy per delivery and latency as the energy
    cap k varies (k-Cycle, k-Clique, pair-TDMA at half their threshold). *)

val burst : t
(** F4: latency (or backlog for Orchestra) as burstiness grows. *)

val baselines : t
(** F5: empirical stability frontiers (located by {!Sweep.frontiers}) of all
    oblivious disciplines — including the random-schedule strawman — under
    the same dedicated pair flood. A frontier that leaves its bracket
    keeps its row, with "-" on the side that was never found. *)

(** {2 Ablations}

    Each ablation swaps one mechanism of an algorithm for a naive variant
    and reruns the row's worst adversary, showing the mechanism is
    load-bearing (or how much slack the paper's constant has). *)

val delta : t
(** A1: k-Cycle's activity-segment length δ = ⌈4(n−1)k/(n−k)⌉, scaled
    from 1/8× to 4×. *)

val big_threshold : t
(** A2: Orchestra's big-conductor threshold n²−1, against "never big"
    (move-big-to-front disabled — Theorem 1's mechanism removed) and an
    eager threshold of n. *)

val allocation : t
(** A3: k-Subsets' balanced thread allocation against first-fit, at the
    optimal rate the balance is supposed to buy. *)

val all : t list
(** F1–F5, then A1–A3. *)
