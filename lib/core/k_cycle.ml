open Mac_channel
open Mac_broadcast

type group_state = {
  index : int;
  ring : Token_ring.t;
  old : (int, unit) Hashtbl.t; (* ids old for this group's current phase *)
}

type state = {
  me : int;
  cg : Cycle_groups.t;
  mine : group_state array; (* the 1 or 2 groups this station belongs to *)
}

(* The lookups below are top-level loops over [s.mine] (one or two
   groups) that allocate nothing: they run for every on station in every
   round, and for every packet the token holder considers. *)

(* Position in [s.mine] of group [group_index], or -1 when [me] is not a
   member. *)
let rec mine_from s group_index i =
  if i >= Array.length s.mine then -1
  else if s.mine.(i).index = group_index then i
  else mine_from s group_index (i + 1)

let find_mine s group_index = mine_from s group_index 0

(* Whether one of my groups other than [group_index] contains [dst]. *)
let rec other_group_has s group_index dst i =
  i < Array.length s.mine
  && ((s.mine.(i).index <> group_index
       && Cycle_groups.in_group s.cg ~group:s.mine.(i).index dst)
      || other_group_has s group_index dst (i + 1))

(* Whether the token holder [me] may transmit packet [p] while group [g] is
   active, once the packet is old. Destinations inside the group are always
   fair game; a packet leaving the group may not be sent by the forward
   connector (it would only hand the packet to itself), nor by a connector
   whose other group contains the destination (it will deliver it directly
   there instead). *)
let routable s (g : group_state) (p : Packet.t) =
  Cycle_groups.in_group s.cg ~group:g.index p.dst
  || (s.me <> Cycle_groups.forward_connector s.cg g.index
      && not (other_group_has s g.index p.dst 0))

let eligible s g (p : Packet.t) = routable s g p && Hashtbl.mem g.old p.id

(* [c] silent rounds of group [g]: the token advances [c] members, and if
   it completes a cycle the packets queued now become the new phase's old
   packets. One silent round is [c = 1]; a skipped stretch leaves the
   queue unchanged, so refilling once at its end gives the table the last
   of its wraps would. *)
let note_silences g ~queue c =
  let phase_before = Token_ring.phase g.ring in
  Token_ring.note_silences g.ring c;
  if Token_ring.phase g.ring <> phase_before then begin
    Hashtbl.reset g.old;
    Pqueue.iter queue ~f:(fun p -> Hashtbl.replace g.old p.Packet.id ())
  end

(* The earliest round [>= round], or [best] if none is earlier, at which
   [me] transmits in one of its groups [s.mine.(i..)], if every round
   until then is silent. In group [g], at my first turn I send an old
   eligible packet; if I have none, my next turn falls after the token's
   wrap, when every queued packet is old, so any routable one goes then.
   A turn no earlier than [best] needs no look at the queue. Asked on
   every skip, so it allocates nothing. *)
let rec next_send s rot ~round ~queue best i =
  if i >= Array.length s.mine then best
  else
    let g = s.mine.(i) in
    let j = Token_ring.silences_until_holder g.ring s.me in
    let first = Rotation.nth_from rot ~slot:g.index ~round j in
    let best =
      if first >= best then best
      else if j >= Token_ring.silences_until_wrap g.ring then
        if Pqueue.exists_such queue routable s g then first else best
      else if Pqueue.exists_such queue eligible s g then first
      else if Pqueue.exists_such queue routable s g then
        Int.min best
          (Rotation.nth_from rot ~slot:g.index ~round
             (j + Token_ring.size g.ring))
      else best
    in
    next_send s rot ~round ~queue best (i + 1)

(* The per-round on-set sizes of the groups [sorted.(g..)] over
   [from, until), summed into [(sum, max, exceeding)]. *)
let rec tally rot (sorted : int array array) ~from ~until ~cap g sum
    max_size exceeding =
  if g >= Array.length sorted then (sum, max_size, exceeding)
  else
    let c = Rotation.count_in rot ~slot:g ~from ~until
    and size = Array.length sorted.(g) in
    if c = 0 then tally rot sorted ~from ~until ~cap (g + 1) sum max_size exceeding
    else
      tally rot sorted ~from ~until ~cap (g + 1) (sum + (c * size))
        (Int.max max_size size)
        (if size > cap then exceeding + c else exceeding)

let build ?delta_scale ~n ~k () =
  let cg0 = Cycle_groups.make ?delta_scale ~n ~k () in
  let module M = struct
    type nonrec state = state

    let name =
      match delta_scale with
      | None | Some 1.0 -> Printf.sprintf "k-cycle(k=%d)" cg0.Cycle_groups.k
      | Some s -> Printf.sprintf "k-cycle(k=%d,delta*%g)" cg0.Cycle_groups.k s

    let plain_packet = true
    let direct = false
    let oblivious = true
    let required_cap ~n:_ ~k:_ = cg0.Cycle_groups.k

    let static_schedule =
      Some
        (fun ~n:_ ~k:_ ~me ~round ->
          Cycle_groups.in_group cg0 ~group:(Cycle_groups.active_group cg0 ~round) me)

    let create ~n:n' ~k:_ ~me =
      assert (n' = n);
      let mine =
        Cycle_groups.member_groups cg0 me
        |> List.map (fun index ->
               { index;
                 ring = Token_ring.create ~members:cg0.Cycle_groups.groups.(index);
                 old = Hashtbl.create 64 })
        |> Array.of_list
      in
      { me; cg = cg0; mine }

    let on_duty s ~round ~queue:_ =
      Cycle_groups.in_group s.cg ~group:(Cycle_groups.active_group s.cg ~round) s.me

    let act s ~round ~queue =
      let active = Cycle_groups.active_group s.cg ~round in
      let i = find_mine s active in
      if i < 0 then Action.Listen (* unreachable: off stations are not asked *)
      else
        let g = s.mine.(i) in
        if Token_ring.holder g.ring <> s.me then Action.Listen
        else begin
          match Pqueue.oldest_such queue (eligible s g) with
          | Some p -> Action.Transmit (Message.packet_only p)
          | None -> Action.Listen
        end

    let observe s ~round ~queue ~feedback =
      let active = Cycle_groups.active_group s.cg ~round in
      let i = find_mine s active in
      if i < 0 then Reaction.No_reaction
      else
        let g = s.mine.(i) in
        (match feedback with
         | Feedback.Heard m ->
           Token_ring.note_heard g.ring;
           (match m.Message.packet with
            | Some p
              when (not (Cycle_groups.in_group s.cg ~group:g.index p.Packet.dst))
                   && s.me = Cycle_groups.forward_connector s.cg g.index ->
              Reaction.Adopt_heard_packet
            | Some _ | None -> Reaction.No_reaction)
         | Feedback.Silence | Feedback.Collision ->
           note_silences g ~queue 1;
           Reaction.No_reaction)

    let offline_tick _ ~round:_ ~queue:_ = ()

    (* Group g is active in blocks of δ rounds, so each closed form below
       is a count of g's active rounds; on a silent one every member's
       replica of g's ring takes one step. *)
    let sparse =
      Some
        (fun ~n:_ ~k:_ ->
          let rot =
            Rotation.make ~slots:(Cycle_groups.group_count cg0)
              ~width:cg0.Cycle_groups.delta
          in
          let sorted =
            Array.map
              (fun members ->
                let a = Array.copy members in
                Array.sort Int.compare a;
                a)
              cg0.Cycle_groups.groups
          in
          let on_set ~round = sorted.(Cycle_groups.active_group cg0 ~round) in
          let on_count_in ~from ~until ~cap =
            tally rot sorted ~from ~until ~cap 0 0 0 0
          in
          let next_transmission s ~round ~queue =
            next_send s rot ~round ~queue max_int 0
          in
          let step_group states (queues : Pqueue.t array) g c =
            let members = cg0.Cycle_groups.groups.(g) in
            for j = 0 to Array.length members - 1 do
              let s = states.(members.(j)) in
              note_silences s.mine.(find_mine s g) ~queue:queues.(members.(j)) c
            done
          in
          let fast_forward states ~queues ~from ~until =
            Rotation.iter_active rot ~from ~until step_group states queues
          in
          { Algorithm.on_set; on_count_in; next_transmission;
            ticks_offline = false; fast_forward = Some fast_forward })

    include Algorithm.Marshal_codec (struct
      type nonrec state = state
    end)
  end in
  (module M : Algorithm.S)

let algorithm ~n ~k = build ~n ~k ()

let algorithm_scaled ~delta_scale ~n ~k = build ~delta_scale ~n ~k ()
