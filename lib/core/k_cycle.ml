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
   active. Destinations inside the group are always fair game; a packet
   leaving the group may not be sent by the forward connector (it would only
   hand the packet to itself), nor by a connector whose other group contains
   the destination (it will deliver it directly there instead). *)
let eligible s ~(g : group_state) (p : Packet.t) =
  Hashtbl.mem g.old p.id
  && (Cycle_groups.in_group s.cg ~group:g.index p.dst
      || (s.me <> Cycle_groups.forward_connector s.cg g.index
          && not (other_group_has s g.index p.dst 0)))

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
          match Pqueue.oldest_such queue (eligible s ~g) with
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
           let phase_before = Token_ring.phase g.ring in
           Token_ring.note_silence g.ring;
           if Token_ring.phase g.ring <> phase_before then begin
             Hashtbl.reset g.old;
             Pqueue.iter queue ~f:(fun p -> Hashtbl.replace g.old p.Packet.id ())
           end;
           Reaction.No_reaction)

    let offline_tick _ ~round:_ ~queue:_ = ()

    let sparse = None

    include Algorithm.Marshal_codec (struct
      type nonrec state = state
    end)
  end in
  (module M : Algorithm.S)

let algorithm ~n ~k = build ~n ~k ()

let algorithm_scaled ~delta_scale ~n ~k = build ~delta_scale ~n ~k ()
