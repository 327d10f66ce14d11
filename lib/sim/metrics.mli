(** Per-run measurements.

    The engine owns a mutable collector while the simulation runs and
    [finalize]s it into the immutable {!summary} consumed by tests, the CLI
    and reports. All delays are in rounds; a packet's delay is the round it
    was delivered minus the round it was injected. Undelivered packets
    contribute to [undelivered] and [max_queued_age] (a lower bound on what
    their delay would be), never to the delay statistics. *)

type violations = {
  cap_exceeded : int;      (** rounds with more switched-on stations than the cap *)
  stranded : int;          (** heard packets nobody consumed or adopted *)
  adoption_conflicts : int;(** two stations tried to adopt the same packet *)
  spurious_adoptions : int;(** adoption reaction with no packet pending *)
}

(** Degradation bookkeeping for fault-injected runs (all zero / sentinel
    [-1] when the fault plan was empty). Conservation becomes
    [injected = delivered + final_total_queue + lost_to_crash]. *)
type fault_stats = {
  crashes : int;
  restarts : int;
  jammed_rounds : int;     (** rounds whose resolution a jam or noise forced *)
  noise_rounds : int;      (** the subset of [jammed_rounds] forced by noise *)
  lost_to_crash : int;     (** packets dropped by crash-with-drop faults *)
  last_fault_round : int;  (** [-1] when no fault fired *)
  pre_fault_queue : int;   (** backlog just before the first fault *)
  post_fault_peak_queue : int;
      (** largest backlog observed at or after the first fault *)
  recovery_rounds : int;
      (** rounds from the last fault until the backlog returned to the
          pre-fault level for good (it never exceeded [pre_fault_queue]
          at a later round end); [-1] = the run ended with the backlog
          still above the pre-fault level, or no faults *)
}

type summary = {
  algorithm : string;
  adversary : string;
  n : int;
  k : int;
  rounds : int;            (** injection rounds *)
  drain_rounds : int;      (** extra no-injection rounds actually run *)
  injected : int;
  delivered : int;
  undelivered : int;       (** [injected - delivered]: still queued plus
                               lost-to-crash *)
  max_delay : int;         (** 0 when nothing was delivered *)
  mean_delay : float;
  p99_delay : int;         (** from the log-bucketed histogram: an upper
                               estimate within one bucket (~6%) of the
                               exact order statistic, clamped (inside
                               {!Histogram.percentile}) to [max_delay] *)
  delay_histogram : (int * int * int) array;
  (** non-empty delay buckets as [(lo, hi, count)], ascending — the full
      delay distribution at fixed memory (see {!Histogram}) *)
  max_queued_age : int;    (** age of the oldest packet still queued at the end *)
  max_total_queue : int;
  final_total_queue : int;
  max_station_queue : int;
  queue_series : (int * int) array; (** (round, total queued) samples *)
  energy_cap : int;
  max_on : int;
  mean_on : float;
  station_rounds : int;    (** total energy spent *)
  silent_rounds : int;
  light_rounds : int;      (** heard messages carrying no packet *)
  delivery_rounds : int;
  relay_rounds : int;      (** heard packets adopted by a relay *)
  collision_rounds : int;
  max_hops : int;          (** successful transmissions of a single packet *)
  control_bits_total : int;
  control_bits_max : int;  (** largest control payload in one message *)
  violations : violations;
  faults : fault_stats;
}

(** {2 Exported fields}

    The summary's scalar fields, declared once. [Export] derives the CSV
    header, the CSV row and the JSON object from {!fields}, and
    [Mac_verify.Diff] compares runs field by field through it; the naive
    oracle reports its statistics as [(name, value)] pairs under the
    same names. *)

type value = Str of string | Int of int | Float of float

type group =
  | Top         (** a field of the summary itself *)
  | Violations  (** a field of [violations] *)
  | Faults      (** a field of [faults] *)

type field = { name : string; group : group; read : summary -> value }

val fields : field list
(** The 41 exported fields in CSV column order: the top-level fields,
    then [violations], then [faults], each group in record order. The
    arrays ([delay_histogram], [queue_series]) are not in the table. *)

val energy_per_delivery : summary -> float
(** Station-rounds spent per delivered packet; [nan] when nothing delivered. *)

val no_violations : summary -> bool

val no_faults : summary -> bool
(** [true] iff no fault ever fired (empty plan, or nothing scheduled
    within the rounds actually run). *)

val pp_summary : Format.formatter -> summary -> unit
(** Appends a [faults:] line only when faults fired, so fault-free output
    is byte-identical to the pre-fault-layer format. *)

(** The engine-facing collector. *)
type t

val create :
  algorithm:string -> adversary:string -> n:int -> k:int -> cap:int ->
  sample_every:int -> t

val note_injection : t -> unit

val note_self_injection : t -> unit
(** A self-addressed packet: injected and delivered in the same breath
    ([delay = 0], [hops = 0]), never queued — so unlike a
    [note_injection]/[note_delivery] pair it cannot transiently inflate
    [max_total_queue]. *)

val note_on_count : t -> int -> unit
val note_station_queue : t -> int -> unit
(** Observed size of some station's queue (for the max). *)

val note_silence : t -> unit
val note_collision : t -> unit
val note_light : t -> unit
val note_delivery : t -> delay:int -> hops:int -> unit
val note_relay : t -> unit
val note_control_bits : t -> int -> unit
val note_cap_exceeded : t -> unit
val note_stranded : t -> unit
val note_adoption_conflict : t -> unit
val note_spurious_adoption : t -> unit

val note_crash : t -> round:int -> lost:int -> unit
(** A station crashed, dropping [lost] packets from its queue (0 when
    the queue is retained). Lost packets leave [total_queued]. *)

val note_restart : t -> round:int -> unit
val note_jammed : t -> round:int -> noise:bool -> unit
(** A jam/noise fault forced this round's resolution. Called at
    channel-resolution time, alongside the corresponding [note_collision]
    — the same position the [Round_jammed] event occupies in a recorded
    stream, so replay stays exact. *)

val end_round : t -> round:int -> draining:bool -> unit
(** Book-keeping at the end of each simulated round (queue sampling,
    fault-recovery tracking). *)

val skip_quiet :
  t ->
  from_round:int ->
  count:int ->
  on_sum:int ->
  on_max:int ->
  cap_exceeded_rounds:int ->
  draining:bool ->
  unit
(** Account for [count] consecutive provably-silent rounds starting at
    [from_round] in O(1 + samples): bit-identical to calling, for each
    round in the span, [note_on_count] (with the per-round on-set size,
    summarised by [on_sum]/[on_max]/[cap_exceeded_rounds] — the
    algorithm's closed-form [on_count_in] triple), [note_silence] and
    [end_round]. Sound only when the span injects, delivers and loses
    nothing, so the backlog is constant across it. *)

val observe : t -> round:int -> Mac_channel.Event.t -> unit
(** Drive the collector from a typed event instead of a [note_*] call.
    Replaying a recorded run's complete event stream through [observe]
    (then [finalize]) reconstructs the same summary the engine produced
    live — queue sizes are rebuilt from the packet-movement events. *)

val total_queued : t -> int
(** [injected - delivered - lost_to_crash]: packets still sitting in some
    queue. *)

(** Mid-run snapshot of the counters telemetry streams (see
    [Mac_sim.Telemetry]); reading it never perturbs the collector. *)
type live = {
  live_injected : int;
  live_delivered : int;
  live_total_queued : int;
  live_max_total_queue : int;
  live_max_station_queue : int;
  live_collision_rounds : int;
  live_jammed_rounds : int;
  live_crashes : int;
  live_station_rounds : int;  (** total energy spent so far *)
  live_lost : int;
}

val live_stats : t -> live

val live_delay_histogram : t -> Histogram.t
(** The collector's delay histogram, shared (not copied): telemetry
    registers it so quantile lines track the live distribution. Callers
    must treat it as read-only. *)

val copy : t -> t
(** Exact deep copy of the collector (it is pure data), for checkpoints:
    the copy and the original evolve independently. *)

val finalize : t -> final_round:int -> max_queued_age:int -> summary
(** Freeze the collector into a summary. Always appends a final
    [queue_series] sample at [final_round] (when one is not already
    present), so the drained tail is never cut off between [sample_every]
    marks. *)
