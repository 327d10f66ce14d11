(** A deliberately naive reference simulator.

    The oracle re-implements the channel semantics — admission (the exact
    leaky-bucket recurrence), mode decisions, channel resolution, packet
    fate, faults, and packet conservation — from the paper's description,
    with none of the engine's performance machinery: no scratch arrays, no
    maintained totals, no fast paths. Queue sizes and backlogs are
    recomputed by scanning every queue each time they are needed
    (O(n²)-ish per round), packet tracking is a linear scan of a list, and
    events are consed onto a list. It is slow on purpose: the value of a
    differential harness is exactly that the two implementations share no
    shortcuts, so a drift bug in either one shows up as a divergence
    ({!Diff}).

    The oracle additionally re-checks packet conservation from first
    principles at every round end — the sum of scanned queue sizes must
    equal injected − delivered − lost-to-crash — and raises {!Violation}
    if it ever fails. *)

exception Violation of string
(** Mirrors [Mac_sim.Engine.Protocol_violation], message for message, so
    a differential driver can match "both implementations rejected this
    run for the same reason". *)

val unmodelled : string list
(** The {!Mac_sim.Metrics.fields} the oracle does not compute: the run's
    labels ([algorithm], [adversary]) and shape ([n], [k]), which it is
    handed, and [p99_delay], a read-out of the engine's log-bucketed
    histogram. *)

val run :
  algorithm:Mac_channel.Algorithm.t ->
  n:int ->
  k:int ->
  rate:Mac_channel.Qrat.t ->
  burst:Mac_channel.Qrat.t ->
  pacing:Mac_adversary.Adversary.pacing ->
  pattern:Mac_adversary.Pattern.t ->
  rounds:int ->
  drain:int ->
  ?strict:bool ->
  ?faults:Mac_faults.Fault_plan.t ->
  unit ->
  (string * Mac_sim.Metrics.value) list * (int * Mac_channel.Event.t) list
(** Simulate the run and return its digest plus the complete event
    stream ((round, event) pairs, in emission order) — the stream an
    engine run with a recording sink must reproduce verbatim. The digest
    is the oracle's independently computed statistics as [(name, value)]
    pairs, one per {!Mac_sim.Metrics.fields} entry outside {!unmodelled},
    each meaning what the summary field of that name means; the oracle
    borrows the value type and none of the engine's code. [strict]
    defaults to [false]: protocol violations are counted, not raised
    (matching the configuration {!Diff} runs the engine with); hard
    model breaches (a transmitted packet not in the queue, duplicate
    delivery, conservation failure, …) raise {!Violation} regardless. *)
