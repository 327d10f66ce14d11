open Mac_channel
open Mac_broadcast

type pair_state = {
  index : int;
  ring : Token_ring.t;
  old : (int, unit) Hashtbl.t;
}

type state = {
  me : int;
  cp : Clique_pairs.t;
  mine : pair_state array;
  by_index : (int, pair_state) Hashtbl.t;
}

let eligible s (ps : pair_state) (p : Packet.t) =
  Hashtbl.mem ps.old p.id && Clique_pairs.in_pair s.cp ~pair:ps.index p.dst

(* My state for pair [index], which I belong to: a loop over my few
   pairs, cheaper than hashing the index. *)
let rec find_pair s index i =
  if s.mine.(i).index = index then s.mine.(i) else find_pair s index (i + 1)

(* [c] silent rounds of pair [ps]: the ring advances [c] members, and if
   it completes a cycle the packets queued now become the new phase's old
   packets. One silent round is [c = 1]; a skipped stretch leaves the
   queue unchanged, so refilling once at its end gives the table the last
   of its wraps would. *)
let note_silences ps ~queue c =
  let phase_before = Token_ring.phase ps.ring in
  Token_ring.note_silences ps.ring c;
  if Token_ring.phase ps.ring <> phase_before then
    Pqueue.snapshot_ids queue ps.old

(* Whether the queue holds a packet for a member of a pair: a count per
   member (none is addressed to the queue's own station). *)
let rec holds_for ~queue (members : int array) i =
  i < Array.length members
  && (Pqueue.count_to queue members.(i) > 0 || holds_for ~queue members (i + 1))

(* The earliest round [>= round], or [best] if none is earlier, at which I
   transmit in one of my pairs [s.mine.(i..)], if every round until then
   is silent. In pair [ps], at my first turn I send an old packet to a
   member; if I have none, my next turn falls after the ring's wrap, when
   every queued packet is old, so any packet to a member goes then. A turn
   no earlier than [best] needs no look at the queue. Asked on every skip,
   so it allocates nothing. *)
let rec next_send s rot ~round ~queue best i =
  if i >= Array.length s.mine then best
  else
    let ps = s.mine.(i) in
    let members = s.cp.Clique_pairs.members.(ps.index) in
    let j = Token_ring.silences_until_holder ps.ring s.me in
    let first = Rotation.nth_from rot ~slot:ps.index ~round j in
    let best =
      if first >= best || not (holds_for ~queue members 0) then best
      else if
        j >= Token_ring.silences_until_wrap ps.ring
        || Pqueue.exists_such queue eligible s ps
      then first
      else
        Int.min best
          (Rotation.nth_from rot ~slot:ps.index ~round
             (j + Token_ring.size ps.ring))
    in
    next_send s rot ~round ~queue best (i + 1)

let algorithm ~n ~k =
  let cp0 = Clique_pairs.make ~n ~k in
  let module M = struct
    type nonrec state = state

    let name = Printf.sprintf "k-clique(k=%d)" cp0.Clique_pairs.k
    let plain_packet = true
    let direct = true
    let oblivious = true
    let required_cap ~n ~k = Clique_pairs.effective_k ~n ~k

    let static_schedule =
      Some
        (fun ~n:_ ~k:_ ~me ~round ->
          Clique_pairs.in_pair cp0 ~pair:(Clique_pairs.active_pair cp0 ~round) me)

    let create ~n:n' ~k:_ ~me =
      assert (n' = n);
      let mine =
        Clique_pairs.member_pairs cp0 me
        |> List.map (fun index ->
               { index;
                 ring = Token_ring.create ~members:cp0.Clique_pairs.members.(index);
                 old = Hashtbl.create 32 })
        |> Array.of_list
      in
      let by_index = Hashtbl.create (Array.length mine) in
      Array.iter (fun ps -> Hashtbl.replace by_index ps.index ps) mine;
      { me; cp = cp0; mine; by_index }

    let on_duty s ~round ~queue:_ =
      Clique_pairs.in_pair s.cp ~pair:(Clique_pairs.active_pair s.cp ~round) s.me

    let act s ~round ~queue =
      let active = Clique_pairs.active_pair s.cp ~round in
      match Hashtbl.find_opt s.by_index active with
      | None -> Action.Listen
      | Some ps ->
        if Token_ring.holder ps.ring <> s.me then Action.Listen
        else begin
          match Pqueue.oldest_such queue (eligible s ps) with
          | Some p -> Action.Transmit (Message.packet_only p)
          | None -> Action.Listen
        end

    let observe s ~round ~queue ~feedback =
      let active = Clique_pairs.active_pair s.cp ~round in
      (match Hashtbl.find_opt s.by_index active with
       | None -> ()
       | Some ps ->
         (match feedback with
          | Feedback.Heard _ -> Token_ring.note_heard ps.ring
          | Feedback.Silence | Feedback.Collision -> note_silences ps ~queue 1));
      Reaction.No_reaction

    let offline_tick _ ~round:_ ~queue:_ = ()

    (* Pair p is active when [round mod P = p]; on a silent active round
       each member's replica of p's ring takes one step. *)
    let sparse =
      Some
        (fun ~n:_ ~k:_ ->
          let rot =
            Rotation.make ~slots:(Clique_pairs.pair_count cp0) ~width:1
          in
          let size = cp0.Clique_pairs.k in
          let on_set ~round =
            cp0.Clique_pairs.members.(Clique_pairs.active_pair cp0 ~round)
          in
          let on_count_in ~from ~until ~cap =
            let m = until - from in
            if m <= 0 then (0, 0, 0)
            else (size * m, size, if size > cap then m else 0)
          in
          let next_transmission s ~round ~queue =
            next_send s rot ~round ~queue max_int 0
          in
          let step_pair states (queues : Pqueue.t array) pair c =
            let members = cp0.Clique_pairs.members.(pair) in
            for j = 0 to Array.length members - 1 do
              note_silences (find_pair states.(members.(j)) pair 0)
                ~queue:queues.(members.(j)) c
            done
          in
          let fast_forward states ~queues ~from ~until =
            Rotation.iter_active rot ~from ~until step_pair states queues
          in
          { Algorithm.on_set; on_count_in; next_transmission;
            ticks_offline = false; fast_forward = Some fast_forward })

    include Algorithm.Marshal_codec (struct
      type nonrec state = state
    end)
  end in
  (module M : Algorithm.S)
