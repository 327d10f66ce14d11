(** Differential checking: the engine against the naive {!Oracle}.

    Every entry point takes a {!Mac_experiments.Scenario.spec}. A spec
    builds fresh pattern state for each run, so the engine and the oracle
    (or the sparse certifier's three engine runs) replay the same
    injection sequence from one value. {!random} and {!random_sparse} draw
    specs from a seed; experiment drivers pass their catalog's specs.

    A divergence — any summary field or any event differing — is a drift
    bug in one of the two implementations; the verdict says where they
    first disagreed. *)

type mismatch = {
  what : string;   (** summary field name, or ["event[i]"] / ["exception"] *)
  engine : string; (** the engine's value, rendered *)
  oracle : string; (** the oracle's value, rendered *)
}

type verdict = {
  id : string;
  events : int;    (** events compared (the longer stream's length) *)
  mismatches : mismatch list; (** empty = the implementations agree *)
}

val agrees : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit
(** One line when agreeing; id plus each mismatch on its own line
    otherwise. *)

val config : Mac_experiments.Scenario.spec -> Mac_sim.Engine.config
(** {!Mac_experiments.Scenario.config} on the oracle's terms: strict off
    (violations are counted, not raised) and no schedule cross-check. *)

val run_pair : Mac_experiments.Scenario.spec -> verdict
(** Run the spec through the engine under {!config} with a recording
    sink and through {!Oracle.run}, then compare the two event streams
    exactly and every comparable summary field. If exactly one side
    raises, that is a mismatch; if both raise the same protocol-violation
    message, they agree. *)

val run_pairs :
  ?jobs:int -> Mac_experiments.Scenario.spec list -> verdict list
(** [run_pair] over a batch on {!Mac_experiments.Scenario.run_batch} with
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

val certify_sparse : Mac_experiments.Scenario.spec -> verdict
(** Certify the engine's sparse mode against its dense mode on one spec,
    run three times under {!config}: dense with a recording sink and
    periodic checkpoints (the reference), sparse without a sink
    (skip-ahead armed) with the same checkpoint cadence, and sparse with a
    sink. Agreement means: every summary field and the summary's Marshal
    bytes, every checkpoint snapshot's Marshal bytes, and the full event
    stream are identical across modes. Requires a sparse-capable
    algorithm ([Invalid_argument] otherwise — that is the engine's own
    check). *)

val certify_sparse_batch :
  ?jobs:int -> Mac_experiments.Scenario.spec list -> verdict list
(** {!certify_sparse} over a batch on {!Mac_experiments.Scenario.run_batch}
    with [jobs] worker domains (default 1 = sequential), results in input
    order. *)

val random_sparse : seed:int -> Mac_experiments.Scenario.spec
(** Like {!random} but pinned to a sparse-capable algorithm, for
    {!certify_sparse}: pair-TDMA or the ack-based broadcast TDMA (ack-rr),
    each drawn half the time. *)
