(** Executable versions of the paper's impossibility-proof adversaries.

    Each lower bound in the paper is proved by constructing an injection
    strategy a routing algorithm cannot absorb; these builders turn those
    constructions into runnable {!Pattern.t} makers: the (possibly long)
    search for a victim runs once, in the builder, and each call of the
    choice's [pattern] builds a fresh pattern for one run.

    - Theorem 6 (no k-energy-oblivious algorithm is stable for ρ > k/n):
      by double counting, some station is switched on for at most k·t/n of
      any t rounds. Because the schedule of an oblivious algorithm is known
      in advance, [min_duty] finds that station over a horizon and floods it.

    - Theorem 9 (no oblivious *direct* algorithm is stable for
      ρ > k(k−1)/(n(n−1))): some ordered pair (w, z) is simultaneously on
      for at most k(k−1)/(n(n−1)) of the rounds; [min_pair] finds it and
      injects packets into w destined to z only.

    - Theorem 2 / Lemma 1 (no cap-2 algorithm is stable at ρ = 1): the proof
      splits executions on whether a chosen switched-off clean station s ever
      wakes; [cap2_breaker] plays the adaptive strategy online: it keeps a
      clean witness station s, injects one packet per round into a helper
      station destined away from s, and re-chooses the witness whenever s
      switches on (each such wake-up forfeits a delivery opportunity). *)

type choice = {
  pattern : unit -> Pattern.t;  (** a fresh pattern per call *)
  description : string;  (** the concrete victim chosen, for reports *)
}

val min_duty :
  n:int -> horizon:int -> schedule:(me:int -> round:int -> bool) -> choice
(** Flood the station with the fewest on-rounds in [0, horizon). *)

val min_pair :
  n:int -> horizon:int -> schedule:(me:int -> round:int -> bool) -> choice
(** Pair-flood the ordered pair (w, z) with the fewest co-on rounds. *)

val cap2_breaker : n:int -> choice
(** The adaptive Lemma-1 strategy. Requires [n >= 3]. *)
