(** Exact rational arithmetic for admission control.

    The adversary's (ρ, β) type is defined by the exact window inequality
    injections(s, t] ≤ ρ·(t − s) + β; accumulating ρ in floating point
    drifts for non-dyadic rates (ρ = 1/10 gains or loses a whole token
    after ~10⁵ rounds), silently admitting one packet too many or too few.
    [Qrat] is the small exact-rational type the leaky bucket and every
    rate-carrying layer above it (adversary, scenarios, sweeps, CLI) are
    built on: normalised int numerator/denominator with overflow-checked
    operations, so equal rates are equal values and token arithmetic is
    exact forever.

    Values are kept canonical: the denominator is positive and
    gcd(|num|, den) = 1, so structural equality ([=]) is semantic
    equality. Every operation that could exceed the native int range
    raises {!Overflow} instead of wrapping. *)

type t = private { num : int; den : int }

exception Overflow of string
(** Raised when an intermediate product or sum leaves the native int
    range. Bucket arithmetic never triggers it (token numerators are
    bounded by the clamp), but pathological rationals can. *)

val make : int -> int -> t
(** [make num den] is the canonical [num/den]. Raises [Invalid_argument]
    when [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

val num : t -> int
val den : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order by value; cross-multiplications are overflow-checked. *)

val min : t -> t -> t
val max : t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val neg : t -> t

val floor : t -> int
(** ⌊q⌋ (towards negative infinity). *)

val is_integer : t -> bool

val sign : t -> int

val of_float : float -> t
(** The simplest rational whose correctly-rounded float value is the
    argument: [to_float (of_float f) = f], with the smallest possible
    denominator (Stern–Brocot / continued fractions). Decimal literals
    snap to the rational they were meant to denote — [of_float 0.1] is
    1/10, [of_float 0.6] is 3/5 — so the deprecated float APIs lose
    nothing on the way in. Raises [Invalid_argument] on NaN/infinity and
    {!Overflow} when no rational of native ints is that close — a
    magnitude of 2{^62} or more, or a nonzero one below 2{^-62}. *)

val to_float : t -> float

val of_string : string -> (t, string) result
(** Accepts ["NUM/DEN"] (exact), decimal/scientific literals (via
    {!of_float}, so ["0.1"] is exactly 1/10) and plain integers. Never
    raises: a value outside what native ints can represent is an
    [Error]. *)

val to_string : t -> string
(** ["num/den"], or just ["num"] for integers — re-parseable by
    {!of_string}. *)

val pp : Format.formatter -> t -> unit
