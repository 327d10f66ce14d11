(** The contract between a distributed routing algorithm and the channel.

    An algorithm is executed by all stations concurrently: the engine
    instantiates one [state] per station with [create] and drives the hooks
    each round. Stations share no memory; all coordination flows through
    channel feedback, exactly as in the paper's model:

    - [on_duty] is the station's on/off decision for the round (the paper's
      programmable wakeup mechanism). Switched-off stations neither transmit
      nor hear anything.
    - [act] is called for switched-on stations: transmit a message or listen.
    - [observe] delivers the round's feedback to switched-on stations only;
      the returned {!Reaction.t} may adopt a heard, undelivered packet.
    - [offline_tick] lets switched-off stations advance local bookkeeping
      (their clock keeps running and the adversary may have grown their
      queue); faithful algorithms read nothing else from it.

    The declared classification flags ([plain_packet], [direct], [oblivious])
    are enforced by the engine: plain-packet algorithms may only transmit
    bare packets, direct algorithms may never adopt, and oblivious algorithms
    must expose their precomputed on/off schedule via [static_schedule]
    (tests check [on_duty] agrees with it and ignores traffic). *)

(** Closed-form schedule knowledge for the engine's sparse/skip-ahead path,
    over the algorithm's station state ['st] (see {!S.sparse} for the full
    contract each field must satisfy). *)
type 'st sparse = {
  on_set : round:int -> int array;
      (** Exactly the stations scheduled on at [round], strictly ascending.
          The engine only reads the array, so it may be shared. *)
  on_count_in : from:int -> until:int -> cap:int -> int * int * int;
      (** [(sum, max, exceeding)] of per-round on-set sizes over
          [from, until): their sum, their maximum (0 on an empty range),
          and the count of rounds whose size exceeds [cap]. *)
  next_transmission : 'st -> round:int -> queue:Pqueue.t -> int;
      (** Asked of one station holding packets, with its state and queue:
          the earliest round [>= round] at which it would transmit, if
          every round until then is silent and its queue does not change;
          [max_int] = never. May be early, never late. *)
  ticks_offline : bool;
      (** Whether [on_duty] or [offline_tick] keep bookkeeping beyond the
          schedule (k-Subsets' phase allocation), so that a concrete round
          must visit every station as a dense round does. [false] lets it
          visit only the stations scheduled on at it or at the round
          before. *)
  fast_forward :
    ('st array -> queues:Pqueue.t array -> from:int -> until:int -> unit) option;
      (** Carries the stations' states (indexed by station) across a
          skipped silent stretch [from, until), given their queues:
          afterwards each must equal the state the dense engine leaves at
          [until]. It touches only the stations the stretch changes —
          those whose group, pair or thread was active in it, plus any
          per-phase bookkeeping. [None] when silent rounds never change
          station state. *)
}

module type S = sig
  type state

  val name : string

  val plain_packet : bool
  (** Messages are exactly one packet, no control bits. *)

  val direct : bool
  (** Every packet makes a single hop: injection station to destination. *)

  val oblivious : bool
  (** The on/off schedule of every station is fixed before the execution. *)

  val required_cap : n:int -> k:int -> int
  (** The energy cap the algorithm actually respects for a system of [n]
      stations when the supply caps at [k] (e.g. Orchestra answers 3;
      k-Cycle may answer less than [k] after its internal adjustment). *)

  val static_schedule : (n:int -> k:int -> me:int -> round:int -> bool) option
  (** For oblivious algorithms, the pure schedule; [None] otherwise. *)

  val create : n:int -> k:int -> me:int -> state

  val on_duty : state -> round:int -> queue:Pqueue.t -> bool

  val act : state -> round:int -> queue:Pqueue.t -> Action.t

  val observe :
    state -> round:int -> queue:Pqueue.t -> feedback:Feedback.t -> Reaction.t

  val offline_tick : state -> round:int -> queue:Pqueue.t -> unit

  val sparse : (n:int -> k:int -> state sparse) option
  (** Closed-form schedule queries enabling the engine's sparse/skip-ahead
      execution path; [None] (the conservative default — always correct)
      keeps the algorithm on the dense path. Providing [Some make] asserts
      that [on_duty] answers [static_schedule] everywhere
      (traffic-independent), that [make ~n ~k]'s fields answer as
      documented on {!sparse}, and two things about the rounds the sparse
      engine does not run as the dense engine would:
      - [ticks_offline = false]: [on_duty] has no effect beyond its answer
        and [offline_tick] is an unconditional no-op, so a concrete round
        need not ask the stations scheduled off (pair-TDMA, ack-rr,
        k-Cycle, k-Clique). With [true] ([offline_tick] is not a no-op:
        k-Subsets allocates its phases there), concrete rounds visit
        every station.
      - [fast_forward = None]: on rounds where a station holds no
        transmittable packet, [act] is [Listen] and [observe] of silence
        is [No_reaction], with no state mutation, and so is its offline
        tick — station state after a silent stretch equals state before
        it, and a skip does no per-station work (pair-TDMA, ack-rr).
        [Some ff]: silence moves station state (a token ring advances, a
        phase allocation runs), and [ff] must carry every station across
        a skipped stretch to exactly the state the dense engine leaves
        (k-Cycle, k-Clique, k-Subsets under MBTF).
      The engine's sparse mode is differentially certified against the
      dense engine (events, summaries, checkpoint bytes); a hook violating
      this contract is caught by that harness. *)

  val state_version : int
  (** Version tag of the encoded-state format. Bump whenever [state]'s
      layout changes so stale checkpoints are rejected instead of
      misinterpreted. *)

  val encode_state : state -> string
  (** Serialise a station's full mutable state for a checkpoint. Must be a
      lossless round-trip with {!decode_state}: the decoded state behaves
      bit-identically to the original on every future round. *)

  val decode_state : string -> state
  (** Inverse of {!encode_state}. Only called on strings produced by the
      same [state_version] of the same algorithm (the checkpoint layer
      validates both before calling). *)
end

(** Default codec for algorithms whose [state] is pure data (no closures, no
    custom blocks): OCaml's [Marshal] round-trips such values exactly,
    including hashtable layout. Usage inside an implementation:
    [include Algorithm.Marshal_codec (struct type nonrec state = state end)]. *)
module Marshal_codec (T : sig
  type state
end) : sig
  val state_version : int
  val encode_state : T.state -> string
  val decode_state : string -> T.state
end

type t = (module S)

val describe : t -> string
(** One-line classification: name plus Obl/NObl, Gen/PP, Dir/Ind flags in the
    paper's Table-1 notation. *)
