open Mac_channel

let full_sensing () : Algorithm.t = (module Fs_tree)
let ack_based () : Algorithm.t = (module Ack_rr)

module Make (P : sig
  val name : string
  val snapshot_policy : [ `On_token | `On_phase ]
end) : Algorithm.S = struct
  type state = {
    me : int;
    ring : Token_ring.t;
    eligible : (int, unit) Hashtbl.t;
    mutable need_snapshot : bool;
  }

  let name = P.name
  let plain_packet = true
  let direct = true
  let oblivious = true
  let required_cap ~n ~k:_ = n
  let static_schedule = Some (fun ~n:_ ~k:_ ~me:_ ~round:_ -> true)

  let create ~n ~k:_ ~me =
    let members = Array.init n (fun i -> i) in
    { me; ring = Token_ring.create ~members;
      eligible = Hashtbl.create 64;
      (* The initial holder snapshots at its first turn. *)
      need_snapshot = (me = 0) }

  let on_duty _ ~round:_ ~queue:_ = true

  let act s ~round:_ ~queue =
    if Token_ring.holder s.ring <> s.me then Action.Listen
    else begin
      if s.need_snapshot then begin
        Pqueue.snapshot_ids queue s.eligible;
        s.need_snapshot <- false
      end;
      match Pqueue.oldest_such queue (fun p -> Hashtbl.mem s.eligible p.Packet.id) with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None -> Action.Listen
    end

  let observe s ~round:_ ~queue ~feedback =
    (match feedback with
     | Feedback.Heard _ -> Token_ring.note_heard s.ring
     | Feedback.Silence | Feedback.Collision ->
       let phase_before = Token_ring.phase s.ring in
       let holder_before = Token_ring.holder s.ring in
       Token_ring.note_silence s.ring;
       (match P.snapshot_policy with
        | `On_phase ->
          if Token_ring.phase s.ring <> phase_before then
            Pqueue.snapshot_ids queue s.eligible
        | `On_token ->
          (* Re-arm when the token (re)arrives: either it just moved here
             from another station, or the ring wrapped a full phase while
             this station kept it throughout — the n=1 ring (or a ring
             whose other members all crashed) wraps on every silent round,
             so without the phase test the snapshot would never re-arm and
             later-injected packets would stay ineligible forever. *)
          if
            Token_ring.holder s.ring = s.me
            && (holder_before <> s.me
                || Token_ring.phase s.ring <> phase_before)
          then s.need_snapshot <- true));
    Reaction.No_reaction

  let offline_tick _ ~round:_ ~queue:_ = ()

  let sparse = None

  include Algorithm.Marshal_codec (struct
    type nonrec state = state
  end)
end
