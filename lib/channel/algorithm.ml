(* Closed-form schedule knowledge an algorithm may expose so the engine can
   run it sparsely (touch only scheduled stations) and skip provably-idle
   stretches analytically. See the [sparse] val in {!S} for the contract. *)
type 'st sparse = {
  on_set : round:int -> int array;
  on_count_in : from:int -> until:int -> cap:int -> int * int * int;
  next_transmission : 'st -> round:int -> queue:Pqueue.t -> int;
  ticks_offline : bool;
  fast_forward :
    ('st array -> queues:Pqueue.t array -> from:int -> until:int -> unit) option;
}

module type S = sig
  type state

  val name : string
  val plain_packet : bool
  val direct : bool
  val oblivious : bool
  val required_cap : n:int -> k:int -> int
  val static_schedule : (n:int -> k:int -> me:int -> round:int -> bool) option
  val create : n:int -> k:int -> me:int -> state
  val on_duty : state -> round:int -> queue:Pqueue.t -> bool
  val act : state -> round:int -> queue:Pqueue.t -> Action.t

  val observe :
    state -> round:int -> queue:Pqueue.t -> feedback:Feedback.t -> Reaction.t

  val offline_tick : state -> round:int -> queue:Pqueue.t -> unit

  val sparse : (n:int -> k:int -> state sparse) option
  (** Closed-form schedule queries enabling the engine's sparse/skip-ahead
      execution path; [None] (the conservative default — correct for every
      algorithm) keeps the algorithm on the dense path.

      Providing [Some make] asserts all of the following, which the sparse
      engine relies on for bit-identical execution:
      - [on_duty] equals [static_schedule] for every station and round
        (pure, traffic-independent), and [make ~n ~k] returns:
      - [on_set ~round]: exactly the stations whose schedule is on at
        [round], strictly ascending (read-only to the engine);
      - [on_count_in ~from ~until ~cap]: the closed-form triple
        [(sum, max, exceeding)] of per-round on-set sizes over rounds
        [from, until): their sum, their maximum (0 when the range is
        empty), and the number of rounds whose size exceeds [cap];
      - [next_transmission st ~round ~queue], asked of one station holding
        packets: assuming every round from [round] on is silent and its
        queue does not change, the earliest round [>= round] at which its
        [act] would transmit; [max_int] if that never happens. It must
        never be later than the true round (earlier is merely wasteful).
        The engine takes the minimum over the stations holding packets;
      - [ticks_offline = false]: [on_duty] has no effect beyond its
        answer and [offline_tick] is an unconditional no-op, so the sparse
        engine's concrete rounds visit only the stations scheduled on at
        the round or at the one before. [ticks_offline = true]: concrete
        rounds run as dense rounds do (every live station's [on_duty],
        and [offline_tick] for the switched-off ones);
      - [fast_forward = None]: on rounds where the station holds no
        transmittable packet, [act] returns [Listen] and [observe] of
        [Feedback.Silence] returns [No_reaction], and neither they nor
        [offline_tick] mutate any state on such rounds, so station state
        after a silent stretch equals state before it;
      - [fast_forward = Some ff]: silent rounds may mutate state. At the
        landing of a skipped stretch [from, until) — silent, with no
        queue change and no station crashed — the engine calls
        [ff states ~queues ~from ~until] once; [ff] must leave every
        station in exactly the state the dense engine's [until - from]
        rounds leave, touching only the stations whose group, pair or
        thread was active in the stretch (and any per-phase
        bookkeeping). *)

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

(** Default codec for algorithms whose [state] is pure data (no closures,
    no custom blocks): OCaml's [Marshal] round-trips such values exactly,
    including hashtable bucket layout. Usage inside an implementation:
    [include Algorithm.Marshal_codec (struct type nonrec state = state end)]. *)
module Marshal_codec (T : sig
  type state
end) =
struct
  let state_version = 1
  let encode_state (s : T.state) = Marshal.to_string s []
  let decode_state (b : string) : T.state = Marshal.from_string b 0
end

type t = (module S)

let describe (module A : S) =
  Printf.sprintf "%s [%s-%s-%s]" A.name
    (if A.oblivious then "Obl" else "NObl")
    (if A.plain_packet then "PP" else "Gen")
    (if A.direct then "Dir" else "Ind")
