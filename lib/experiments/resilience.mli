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

val figure : Figures.t
(** The suite as a figure (4 algorithms x 7 plans), run like any other
    through {!Figures.figure}; it is not in {!Figures.all}. Point ids
    are ["resilience/<algorithm>/<plan>"], and the report has one row per
    successful point, in declaration order. *)
