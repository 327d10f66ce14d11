(** Differential checking: the engine against the naive {!Oracle}.

    A {!run} describes one simulation the way both implementations
    understand it. Because patterns are stateful (cycling counters,
    PRNGs), the engine and the oracle must each get a {e fresh} pattern
    instance — hence every entry point takes a pair of runs, equal in
    every respect except that their [pattern] fields hold independently
    created state. {!random_pair} builds such pairs from a seed;
    experiment drivers get theirs by instantiating their catalog twice.

    A divergence — any summary field or any event differing — is a drift
    bug in one of the two implementations; the verdict says where they
    first disagreed. *)

type run = {
  id : string;
  algorithm : Mac_channel.Algorithm.t;
  n : int;
  k : int;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pacing : Mac_adversary.Adversary.pacing;
  pattern : Mac_adversary.Pattern.t;
  rounds : int;
  drain : int;
  faults : Mac_faults.Fault_plan.t option;
}

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

val run_pair : engine:run -> oracle:run -> verdict
(** Run [engine] through [Mac_sim.Engine.run] (strict off, schedule
    check off, recording sink) and [oracle] through {!Oracle.run}, then
    compare the two event streams exactly and every comparable summary
    field. If exactly one side raises, that is a mismatch; if both raise
    the same protocol-violation message, they agree. *)

val run_pairs : ?jobs:int -> (run * run) list -> verdict list
(** [run_pair] over a batch on {!Mac_experiments.Scenario.run_batch} with
    [jobs] worker domains (default 1 = sequential), results in input
    order. *)

val random_pair : seed:int -> run * run
(** A deterministic random configuration: algorithm (Orchestra, k-Cycle,
    k-Subsets under both disciplines, k-Clique, Random-Leader, Count-Hop,
    Adjust-Window, pair-TDMA), system size, exact rational (ρ, β), pacing,
    pattern, drain, and an optional fault plan, all drawn from [seed] via
    {!Mac_channel.Rng}. Equal seeds give equal configurations; the two
    returned runs differ only in pattern state. *)

val certify_sparse : make:(unit -> run) -> verdict
(** Certify the engine's sparse mode against its dense mode on one
    configuration. [make] must build a fresh instance of the same run on
    every call (patterns are stateful); it is called three times: dense
    with a recording sink and periodic checkpoints (the reference), sparse
    without a sink (skip-ahead armed) with the same checkpoint cadence,
    and sparse with a sink. Agreement means: every summary field and the
    summary's Marshal bytes, every checkpoint snapshot's Marshal bytes,
    and the full event stream are identical across modes. Requires a
    sparse-capable algorithm ([Invalid_argument] otherwise — that is the
    engine's own check). *)

val certify_sparse_batch : ?jobs:int -> (unit -> run) list -> verdict list
(** {!certify_sparse} over a batch on {!Mac_experiments.Scenario.run_batch}
    with [jobs] worker domains (default 1 = sequential), results in input
    order. *)

val random_sparse : seed:int -> unit -> run
(** Like {!random_pair} but pinned to a sparse-capable algorithm
    (pair-TDMA) and shaped for {!certify_sparse}: the result is a maker
    producing any number of fresh instances of the one drawn
    configuration. *)
