(** Leaky-bucket admission control for adversarial packet injection.

    An adversary of type (ρ, β) may inject at most ρ·t + β packets in every
    contiguous interval of t rounds. The equivalent token-bucket recurrence
    is: tokens start at ρ + β (the burstiness ⌊β + ρ⌋ bounds a single round),
    injections consume tokens, and [advance] refills by ρ clamped at ρ + β.

    Token arithmetic is exact: ρ and β are {!Mac_channel.Qrat} rationals and
    the recurrence bₜ₊₁ = min(β + ρ, bₜ − iₜ + ρ) is evaluated without
    rounding, so [grant] equals the paper's recurrence at every round — for
    ρ = 1/10 or 1/3 as much as for dyadic rates, over any horizon. (The
    float accumulation this replaces drifted by a whole token after ~10⁵
    rounds at non-dyadic rates, breaking the window bound one packet at a
    time.) Property tests verify the windowed constraint on every trace.

    Every reachable level is a multiple of 1/D with D = lcm(den ρ, den β),
    so the bucket keeps the level as an integer count of 1/D units:
    [grant], [consume], [advance] and [skip] are integer operations that
    allocate nothing. Only {!tokens} and {!set_tokens} convert to and from
    canonical rationals, so snapshots hold the same values as ever. *)

type t

val create_q : rate:Mac_channel.Qrat.t -> burst:Mac_channel.Qrat.t -> t
(** Requires [0 < rate <= 1] and [burst >= 1] (the paper's adversary type),
    checked exactly. Raises {!Mac_channel.Qrat.Overflow} when D, or the cap
    plus one refill in units of 1/D, leaves the native int range — the only
    overflow check the bucket needs. *)

val tokens : t -> Mac_channel.Qrat.t
(** The exact current token level, for checkpointing. *)

val set_tokens : t -> Mac_channel.Qrat.t -> unit
(** Restore a token level previously read with {!tokens}. Raises
    [Invalid_argument] outside [0, rate+burst] or off the 1/D lattice,
    where no run can reach. *)

val grant : t -> int
(** Packets that may still be injected in the current round. *)

val rounds_to_grant : t -> int
(** Quiet rounds ([advance]s with nothing consumed) until {!grant} is at
    least 1; 0 if it already is. *)

val consume : t -> int -> unit
(** Spend tokens for actual injections. Raises [Invalid_argument] when
    exceeding [grant]. *)

val advance : t -> unit
(** Move to the next round: refill by [rate], clamped at [rate + burst] —
    exactly. *)

val skip : t -> rounds:int -> unit
(** [skip t ~rounds] is bit-identical to [rounds] consecutive [advance]s
    with nothing consumed in between, in O(1): the refills telescope and the
    clamp is absorbing, so any [rounds] up to [max_int] lands exactly on
    the cap without overflowing. Used by the engine's analytic skip-ahead.
    Raises [Invalid_argument] on negative [rounds]. *)
