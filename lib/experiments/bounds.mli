(** The quantitative claims of the paper's Table 1, as executable formulas.

    Each function instantiates a bound at concrete (n, k, ρ, β); the
    CLI's Table-1 checks measure values against them. Where our
    faithful implementation necessarily differs from the paper's idealised
    accounting (see DESIGN.md), an [_impl] variant gives the bound with the
    implementable constant, and EXPERIMENTS.md discusses the gap. *)

(** {1 Maximum throughput (§3)} *)

val orchestra_queue_bound : n:int -> beta:float -> float
(** Theorem 1: at most 2n³ + β packets queued, at injection rate 1. *)

val orchestra_big_threshold : n:int -> int
(** A station is big with at least n² − 1 old packets. *)

(** {1 Universal routing (§4)} *)

val count_hop_latency : n:int -> rho:float -> beta:float -> float
(** Theorem 3: 2(n² + β)/(1 − ρ). *)

val count_hop_latency_impl : n:int -> rho:float -> beta:float -> float
(** Same shape with the implementable per-phase overhead: the paper counts
    (n−1)² coordination rounds per phase, but tracking stage totals under
    energy cap 2 needs n(2n−3) of them (DESIGN.md interpretation 2), giving
    2(n(2n−3) + β)/(1 − ρ). *)

val adjust_window_latency : n:int -> rho:float -> beta:float -> float
(** Theorem 4: (18n³·lg²n + 2β)/(1 − ρ), for n sufficiently large. *)

val adjust_window_latency_impl : n:int -> rho:float -> beta:float -> float
(** Twice the first window size large enough to absorb the adversary:
    2·L where L is the smallest doubling of the initial window with
    (1 − ρ)L − 9n³·lgL ≥ β. The executable latency bound for small n. *)

(** {1 Oblivious indirect (§5)} *)

val k_cycle_rate_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Theorem 5 applies below (k−1)/(n−1) (with the effective k), as the
    exact rational. The threshold rates in this section are all ratios of
    small integers; the [_q] variants return them exactly so scenarios and
    sweeps can sit precisely on (or ε away from) a frontier. *)

val k_cycle_rate : n:int -> k:int -> float
(** [Qrat.to_float] of {!k_cycle_rate_q}. *)

val k_cycle_rate_impl_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Exact form of {!k_cycle_rate_impl}: 1/ℓ for ℓ groups. *)

val k_cycle_rate_impl : n:int -> k:int -> float
(** The frontier k-Cycle's construction actually sustains: a group serving
    a flood gets 1/ℓ of the rounds, ℓ = ⌈n/(k−1)⌉ groups, so the
    implementable threshold is 1/ℓ = (k−1)/n in the divisible case —
    strictly below the paper's (k−1)/(n−1) (its ±1 is unachievable by its
    own group count; measured exactly in figures F1/F5). *)

val k_cycle_latency : n:int -> beta:float -> float
(** Theorem 5: (32 + β)·n. *)

val oblivious_rate_upper_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Theorem 6: no k-energy-oblivious algorithm is stable above k/n,
    exactly. *)

val oblivious_rate_upper : n:int -> k:int -> float
(** [Qrat.to_float] of {!oblivious_rate_upper_q}. *)

(** {1 Oblivious direct (§6)} *)

val k_clique_latency_rate_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Theorem 7's latency bound applies up to k²/(2n(2n−k)) (effective k),
    exactly. *)

val k_clique_latency_rate : n:int -> k:int -> float
(** [Qrat.to_float] of {!k_clique_latency_rate_q}. *)

val k_clique_stable_rate_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Theorem 7: bounded latency below k²/(n(2n−k)) = 1/m (effective k),
    exactly. *)

val k_clique_stable_rate : n:int -> k:int -> float
(** [Qrat.to_float] of {!k_clique_stable_rate_q}. *)

val k_clique_latency : n:int -> k:int -> beta:float -> float
(** Theorem 7: 8(n²/k)(1 + β/2k) (effective k). *)

val k_subsets_rate_q : n:int -> k:int -> Mac_channel.Qrat.t
(** Theorems 8 and 9: the optimal oblivious-direct rate k(k−1)/(n(n−1)),
    exactly. *)

val k_subsets_rate : n:int -> k:int -> float
(** [Qrat.to_float] of {!k_subsets_rate_q}. *)

val k_subsets_queue_bound : n:int -> k:int -> beta:float -> float
(** Theorem 8: at most 2·C(n,k)(n² + β) queued packets. *)
