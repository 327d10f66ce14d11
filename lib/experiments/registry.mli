(** The scenario registry: the one table of algorithm names with their
    (n, k) preconditions, the pattern-spec grammar, and the run spec that
    every front end shares — the CLI's [run], [resilience] and [inspect],
    serve's [open] command and its [.meta] files. The matrix and verify's
    random generator draw their algorithms from here too.

    Every error is a one-line string that starts with the JSON-quoted
    field at fault (["\"n\""], ["\"k\""], ["\"algorithm\""],
    ["\"pattern\""], ...), so serve can answer it as is and the CLI can
    print it as is. The checks never raise and are O(1): no per-station
    state is built to validate a spec. *)

type spec = {
  algorithm : string;
  n : int;  (** stations, >= 2 *)
  k : int;  (** energy cap offered, >= 1 *)
  rate : Mac_channel.Qrat.t;  (** injection rate, in (0, 1] *)
  burst : Mac_channel.Qrat.t;  (** burstiness, >= 1 *)
  pattern : string;  (** a spec in the grammar of {!pattern} *)
  rounds : int;  (** injection rounds, >= 0 *)
  drain : int;  (** injection-free rounds after them, >= 0 *)
  seed : int;  (** the pattern's PRNG seed *)
}

val default : spec
(** The CLI's defaults: orchestra, n = 8, k = 3, rate 1/2, burst 2,
    uniform pattern, 100 000 rounds, no drain, seed 42. *)

val names : string list
(** Every registered algorithm name, in [routing_sim list] order. *)

val algorithm :
  ?seed:int ->
  string ->
  n:int ->
  k:int ->
  (Mac_channel.Algorithm.t, string) result
(** The named algorithm for [n] stations under cap [k], after every
    (n, k) check its constructor and [create] would make. [seed] (default
    0) seeds the randomised algorithms, random-leader and backoff; the
    others ignore it. *)

val pattern :
  string -> n:int -> seed:int ->
  (unit -> Mac_adversary.Pattern.t, string) result
(** A generator pattern's maker from its spec: [uniform | flood:V |
    pair:S:D | round-robin | to-busiest | hotspot:H:BIAS |
    alternating:S:D1:D2], with every station in [0, n). The spec is
    checked here; each call of the maker builds a fresh pattern. The
    batch-only saboteurs ([min-duty], [min-pair], [cap2]) need an
    algorithm's schedule and are an error here. Construction is O(1). *)

val check : spec -> (unit, string) result
(** The spec's bounds and its algorithm's (n, k) preconditions — without
    constructing the algorithm, and without looking at [pattern], whose
    saboteur and ["external"] forms only the front ends know. *)

val encode : spec -> (string * Mac_channel.Jsonv.t) list
(** The spec as JSON object fields, in [.meta] order: rate and burst as
    rational strings, the rest as they are. *)

val decode : default:spec -> Mac_channel.Jsonv.t -> (spec, string) result
(** Inverse of {!encode}: a field that is absent or [null] takes its value
    from [default]; a present field of the wrong type is an error naming
    it. Checks types only — see {!check}. *)
