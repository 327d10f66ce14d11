(** Differential checking: the engine against a reference run of the
    same spec — the naive {!Oracle}, or the engine's own dense mode.

    Every entry point takes a {!Mac_experiments.Scenario.spec}. A spec
    builds fresh pattern state for each run, so every run {!check} makes
    replays the same injection sequence from one value. {!random},
    {!random_sparse} and {!random_oblivious} draw specs from a seed;
    experiment drivers pass their catalog's specs.

    A divergence — any summary field or any event differing — is a drift
    bug in one of the two implementations; the verdict says where they
    first disagreed. Summary fields are compared by name through
    {!Mac_sim.Metrics.fields}, in table order, for both references:
    floats bit for bit (rendered with ["%h"]), ints and strings by
    equality. *)

type mismatch = {
  what : string;
      (** {!Mac_sim.Metrics.fields} name, ["event[i]"], ["checkpoint[i]"],
          ["summary.bytes"] or ["exception"]; {!Dense} verdicts prefix it
          with the run under test (["sparse."] or ["sparse+sink."]) *)
  engine : string; (** the run under test's value, rendered *)
  oracle : string; (** the reference's value, rendered *)
}

type verdict = {
  id : string;
  events : int;
      (** events compared: the longer stream's length against {!Oracle},
          the dense stream's length against {!Dense} *)
  mismatches : mismatch list; (** empty = the runs agree *)
}

val agrees : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit
(** One line when agreeing; id plus each mismatch on its own line
    otherwise. *)

val config : Mac_experiments.Scenario.spec -> Mac_sim.Engine.config
(** {!Mac_experiments.Scenario.config} on the oracle's terms: strict off
    (violations are counted, not raised) and no schedule cross-check.
    Every engine run {!check} makes uses it. *)

(** What the engine is checked against. *)
type reference =
  | Oracle
      (** {!Oracle.run}: the dense engine with a recording sink must
          reproduce its event stream exactly and every field of its
          digest. A field outside {!Oracle.unmodelled} that the digest
          leaves out is a mismatch, shown as [oracle=<missing>]. *)
  | Dense
      (** The engine's own [Dense] mode, for sparse-capable algorithms.
          The reference is a dense run with a recording sink and a
          snapshot every [max 1 (rounds / 7)] rounds. Under test are a
          sparse run without a sink (skip-ahead armed) at the same
          checkpoint cadence, which must match the summary and every
          snapshot's Marshal bytes, and a sparse run with a sink, which
          must match the summary and the full event stream. Summaries
          match on every field, [p99_delay] included, and then on their
          Marshal bytes, which also cover the histogram and the queue
          series. Verdict ids carry a [" [sparse-certify]"] suffix. An
          algorithm without a sparse hook raises [Invalid_argument] (the
          engine's own check). *)

val check : reference -> Mac_experiments.Scenario.spec -> verdict
(** Run the spec through the engine and the [reference] and compare
    them. Every mismatch puts the run under test under [engine] and the
    reference under [oracle]. If exactly one side raises, that is an
    ["exception"] mismatch; if both raise the same protocol-violation
    message, they agree. *)

val check_all :
  ?jobs:int -> reference -> Mac_experiments.Scenario.spec list ->
  verdict list
(** {!check} over a batch on {!Mac_experiments.Scenario.run_batch} with
    [jobs] worker domains (default 1 = sequential), results in input
    order. *)

val random : seed:int -> Mac_experiments.Scenario.spec
(** A deterministic random configuration, all drawn from [seed] via
    {!Mac_channel.Rng}: an algorithm from the registry (Orchestra,
    k-Cycle, k-Subsets under both disciplines, k-Clique, Random-Leader,
    Count-Hop, Adjust-Window, pair-TDMA, and the broadcast family: RRW,
    OF-RRW, MBTF, FS-tree, ack-based round robin and backoff), system
    size, exact rational (ρ, β), pacing, pattern, drain, and an optional
    fault plan. A seed names the same configuration in every version. *)

val random_sparse : seed:int -> Mac_experiments.Scenario.spec
(** Like {!random} but pinned to a sparse-capable algorithm, for
    [check Dense]: pair-TDMA or the ack-based broadcast TDMA (ack-rr),
    each drawn half the time. *)

val random_oblivious : seed:int -> Mac_experiments.Scenario.spec
(** Like {!random} but pinned to a family whose sparse hook fast-forwards
    station state across skipped stretches, for [check Dense]: k-Cycle,
    k-Clique or k-Subsets under MBTF, each drawn a third of the time, with
    fault plans, pacing and drains drawn as {!random} draws them. A
    separate generator, so {!random_sparse} seeds keep naming the same
    configurations. *)
