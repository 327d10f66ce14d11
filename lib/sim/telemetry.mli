(** Live metrics: a registry of labelled counters, gauges and
    log-bucketed histograms, a Prometheus-style text exposition, and
    exact cross-registry merging for fleet aggregation.

    The engine populates one registry per run on a configurable round
    cadence (see [Engine.config.telemetry]); batch drivers collect the
    per-scenario registries into a fleet aggregate via {!Fleet}. A
    registry is plain mutable data with no locking of its own — one
    writer (the owning run) plus renders from the same domain. Cross-
    domain aggregation goes through {!Fleet}, which locks. *)

(** How a gauge combines across registries in {!merge_into}: [Sum] for
    extensive quantities (backlog, rounds/s), [Max] for high-water
    marks. *)
type merge = Sum | Max

type counter
(** A monotonically non-decreasing integer. *)

type gauge
(** A point-in-time float. *)

type t
(** A metrics registry. *)

val create : ?labels:(string * string) list -> unit -> t
(** [create ~labels ()] makes an empty registry whose exposition attaches
    [labels] (e.g. [("scenario", id)]) to every line. *)

val base_labels : t -> (string * string) list

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up — registration is idempotent per
    [(name, labels)]) a counter. Raises [Invalid_argument] if the name is
    already registered with a different metric kind. *)

val inc : counter -> unit

val add : counter -> int -> unit

val set_counter : counter -> int -> unit
(** Set the absolute value — for counters mirrored from an existing
    monotonic source (e.g. [Metrics] totals). *)

val counter_value : counter -> int

val gauge :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?merge:merge ->
  string ->
  gauge
(** Default merge policy is [Sum]. *)

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t
(** Register a fresh histogram. *)

val register_histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  Histogram.t ->
  Histogram.t
(** Register an existing histogram by reference — the exposition tracks
    the live distribution (the engine shares [Metrics]' delay histogram
    this way). Returns the registered histogram (the existing one when
    the name was already taken by a histogram). *)

val sample : t -> (string * float) list
(** Counters and gauges in registration order, as
    [(name or name{k="v"}, value)] pairs — the payload of the
    [Event.Telemetry] event. Histograms are not sampled (they appear in
    the exposition). *)

val find_sample : (string * float) list -> string -> float option
(** Look a metric up in a {!sample} by its rendered name. *)

val merge_into : into:t -> t -> unit
(** Exact merge: counters add, gauges combine per their {!merge} policy,
    histograms merge bucket-wise ({!Histogram.merge_into}). Metrics are
    matched by [(name, labels)] ignoring base labels; metrics missing
    from [into] are created. Raises [Invalid_argument] on a metric
    registered with different kinds in the two registries. *)

val render : t -> string
(** Prometheus-style text exposition: [# HELP]/[# TYPE] headers, one
    sample line per counter/gauge, and for each histogram a summary-type
    family with [quantile="0.5"|"0.9"|"0.99"] lines plus a [_count]
    line. Values: integers without a fractional part, [NaN]/[+Inf]/
    [-Inf] spelled the Prometheus way. *)

val write_atomic : path:string -> string -> unit
(** Write via a temp file in the same directory plus [rename], so a
    concurrent reader (scraper, [routing_sim top]) never observes a
    partial file. *)

val parse_exposition :
  string -> ((string * (string * string) list * float) list, string) result
(** Parse a text exposition back into [(name, labels, value)] triples,
    in file order. [# ...] comments and blank lines are skipped.
    [Error] carries a one-line message with the offending line number. *)

(** The metric names the engine publishes — shared by the CLI progress
    line, [routing_sim top] and the tests. *)
module Names : sig
  val round : string  (** gauge: rounds executed so far *)

  val rounds_target : string
  (** gauge: configured rounds + drain limit — an upper bound on
      {!round}, for ETA *)

  val rounds_per_second : string  (** gauge: throughput since last sample *)

  val backlog : string  (** gauge: packets queued now *)

  val backlog_peak : string  (** gauge (max-merge): peak total backlog *)

  val station_queue_peak : string  (** gauge (max-merge) *)

  val bucket_tokens : string  (** gauge: adversary bucket level *)

  val crashed_stations : string  (** gauge *)

  val energy_window : string
  (** gauge: station-rounds spent since the previous sample *)

  val energy_total : string  (** counter: station-rounds spent so far *)

  val injected_total : string

  val delivered_total : string

  val collisions_total : string

  val jams_total : string

  val lost_total : string

  val checkpoints_total : string

  val samples_total : string

  val gc_minor_words_per_round : string
  (** gauge: minor-heap allocation rate since the previous sample *)

  val gc_heap_words : string  (** gauge (max-merge) *)

  val gc_major_collections_total : string

  val delay : string
  (** histogram: delivery delays in rounds (shared with [Metrics]) *)

  val phase_ns : string
  (** histogram, labelled [phase="inject"|"faults"|"resolve"|"deliver"|
      "observe"]: wall-clock nanoseconds per phase of sampled rounds *)

  val scenarios_started : string

  val scenarios_completed : string

  val scenarios_cached : string

  val bisect_probes : string
end

(** What the engine takes: a registry, the sampling cadence, and a hook
    run after each sample (the CLI uses it for progress lines and
    exposition files). *)
type probe = {
  registry : t;
  every : int;  (** sample at every round divisible by this; >= 1 *)
  on_sample : round:int -> t -> unit;
}

val probe :
  ?every:int -> ?on_sample:(round:int -> t -> unit) -> t -> probe
(** [every] defaults to 1000 and is clamped to >= 1. *)

type registry = t
(** Alias so {!Fleet} can name the registry type alongside its own. *)

(** Aggregation across a batch of scenario runs (Table-1 sweeps,
    figures, resilience suites, bisections), safe to drive from
    [Supervisor] worker domains. When a directory is given, each
    scenario's registry is rendered to [<dir>/<stem>.prom] ([<stem>] is
    the id through [Durable.file_stem]) on every sample and the fleet
    aggregate to [<dir>/fleet.prom] — the files [routing_sim top]
    watches. *)
module Fleet : sig
  type nonrec probe = probe

  type t

  val create : ?dir:string -> ?every:int -> unit -> t
  (** Creates [dir] (and parents) when given. [every] is the sampling
      cadence handed to each scenario probe; default 1000. *)

  val probe : t -> id:string -> probe
  (** A probe for one scenario run: its registry carries a
      [scenario=<id>] base label, and sampling rewrites the scenario's
      exposition file. Bumps the started-counter the first time the fleet
      sees [id], so a retry or a re-adopted served channel is one start. *)

  val finish : t -> probe -> unit
  (** Merge a finished scenario's registry into the aggregate (exactly:
      counter sums, gauge policies, histogram bucket sums), bump the
      completed-counter, and rewrite the scenario and fleet files. *)

  val note_cached : t -> id:string -> unit
  (** A scenario was served from the on-disk result cache without
      running. *)

  val add_counter : t -> ?help:string -> ?by:int -> string -> unit
  (** Bump an ad-hoc aggregate counter (e.g. bisection probes) under the
      fleet lock and rewrite the fleet file. *)

  val aggregate : t -> registry
  (** The aggregate registry — treat as read-only outside the fleet's
      own operations. *)

  val dir : t -> string option
end
