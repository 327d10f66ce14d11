(** Typed channel events.

    One value per observable step of the simulated round: injections,
    mode switches, transmissions, channel resolution (silence, collision,
    a heard message), packet fate (delivery, relay adoption, stranding),
    energy-cap violations and the end-of-round marker. The engine emits
    them in order within a round, so a recorded stream is a complete
    journal: per-station queue sizes, on-sets and every counter in
    [Metrics.summary] can be reconstructed from it (see [Mac_sim.Sink]).

    Stations are identified by index; [round] is carried alongside the
    event by the emitting sink, not inside the variant. *)

type t =
  | Injected of { id : int; src : int; dst : int }
      (** The adversary injected packet [id] at [src] for [dst]. When
          [src = dst] the packet is delivered instantly and never queued
          (a [Delivered] with [hops = 0] follows). *)
  | Switched_on of { station : int }
      (** Mode edge: the station was off last round and is on now. *)
  | Switched_off of { station : int }
  | Transmit of { station : int; light : bool }
      (** The station transmitted; [light] means the message carried no
          packet. Emitted for every transmitter, colliding or not. *)
  | Silence
  | Collision of { stations : int list }  (** Two or more transmitters. *)
  | Heard of { station : int; bits : int; light : bool }
      (** Exactly one transmitter: everybody on hears [station]'s message
          carrying [bits] control bits. *)
  | Delivered of { id : int; from_ : int; dst : int; delay : int; hops : int }
      (** The heard packet reached its switched-on destination. [from_]
          is the transmitter (source or relay); [hops = 0] only for
          self-addressed packets delivered at injection. *)
  | Relayed of { id : int; from_ : int; relay : int; dst : int }
      (** The heard packet was adopted by [relay]. *)
  | Stranded of { id : int; station : int }
      (** Nobody consumed the heard packet; returned to the transmitter. *)
  | Cap_exceeded of { on_count : int; cap : int }
  | Adoption_conflict of { stations : int list }
  | Spurious_adoption of { stations : int list }
  | Round_end of { on_count : int; draining : bool }
      (** Always the last event of a round; [on_count] stations were on. *)
  | Station_crashed of { station : int; lost : int }
      (** Fault injection: the station crashed at the top of the round
          (before mode decisions); [lost] packets were dropped from its
          queue ([0] when the queue is retained). *)
  | Station_restarted of { station : int }
      (** Fault injection: a crashed station rebooted with fresh
          algorithm state and takes part from this round on. *)
  | Round_jammed of { transmitters : int; noise : bool }
      (** Fault injection: a jam or noise fault fired this round.
          [noise] marks spurious noise (forces a collision even with
          zero transmitters). A jam with at least one transmitter forces
          a collision; a jam of an empty round leaves the channel silent
          but is still recorded — [transmitters = 0] and [noise = false]
          then precedes a [Silence]. Otherwise the event immediately
          precedes the [Collision] it forces ([>= 2] transmitters: it
          merely annotates the natural collision). *)
  | Telemetry of { sample : (string * float) list }
      (** Live telemetry snapshot: the registry's counters and gauges as
          [(metric name, value)] pairs, in registration order, emitted by
          the engine on the configured cadence (see [Mac_sim.Telemetry]).
          Carries no channel semantics — replay-oriented consumers
          ignore it. *)

val notable : t -> bool
(** The historically traced subset: injections, collisions, light
    messages, deliveries, relays, faults, and protocol violations. [Transmit],
    [Silence], [Heard] of a packet, mode edges and [Round_end] are not
    notable — they exist for replay and timelines, not for eyeballing. *)

val to_string : t -> string
(** Compact human-readable form ("inject #3 0->2", "deliver #3 1->2
    (delay 4, hop 2)", ...) — the format the [Trace] ring buffer shows. *)

val add_json : Buffer.t -> round:int -> t -> unit
(** [add_json buf ~round ev] appends the event's one-line JSON object,
    e.g. [{"round":7,"type":"injected","id":3,"src":0,"dst":2}], to
    [buf], without a newline: exactly the bytes {!to_json} returns,
    whatever [buf] already holds. This is the only event encoder. Field
    names are constants and integers are written digit by digit, so an
    event without a telemetry sample allocates nothing beyond [buf]'s own
    growth. Telemetry keys and values are written with {!Jsonv.escape}
    and {!Jsonv.add_float}, so no byte below 0x20 appears raw. *)

val to_json : round:int -> t -> string
(** {!add_json} into a fresh buffer: the event's line as a string. *)

val of_json_line : string -> (int * t, string) result
(** Decode a line produced by {!to_json} back into [(round, event)]. The
    line is read by {!Jsonv.parse}; the decoder then requires every field
    the event's type needs, with the type {!to_json} writes (an int field
    holding [1.0] or a string is an error). Fields may come in any order,
    and unknown fields are ignored. Returns [Error msg] on malformed input
    and never raises. *)

val round_of_line : string -> int option
(** The round of a {!to_json} line, read from its [{"round":N] prefix
    without decoding the rest; [None] when the line does not start so. *)
