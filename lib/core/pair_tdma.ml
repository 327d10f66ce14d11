open Mac_channel

type state = { me : int; n : int }

let name = "pair-tdma"
let plain_packet = true
let direct = true
let oblivious = true
let required_cap ~n:_ ~k:_ = 2

(* Round t serves ordered pair number t mod n(n-1), enumerated as
   (s, d) = (idx / (n-1), skip-diagonal of idx mod (n-1)). *)
let pair_of_round ~n ~round =
  let idx = round mod (n * (n - 1)) in
  let s = idx / (n - 1) in
  let r = idx mod (n - 1) in
  let d = if r >= s then r + 1 else r in
  (s, d)

let static_schedule =
  Some
    (fun ~n ~k:_ ~me ~round ->
      let s, d = pair_of_round ~n ~round in
      me = s || me = d)

let create ~n ~k:_ ~me = { me; n }

let on_duty s ~round ~queue:_ =
  let src, dst = pair_of_round ~n:s.n ~round in
  s.me = src || s.me = dst

let act s ~round ~queue =
  let src, dst = pair_of_round ~n:s.n ~round in
  if s.me <> src then Action.Listen
  else
    match Pqueue.oldest_to queue dst with
    | Some p -> Action.Transmit (Message.packet_only p)
    | None -> Action.Listen

let observe _ ~round:_ ~queue:_ ~feedback:_ = Reaction.No_reaction

let offline_tick _ ~round:_ ~queue:_ = ()

(* The schedule is a pure function of the round with an O(1) inverse, and
   stations carry no evolving state, so the full sparse contract holds
   without a fast-forward: [on_set] is the scheduled pair; a station's next
   transmission is the minimum, over the destinations it holds packets
   for, of the next round serving that ordered pair. *)
let sparse =
  Some
    (fun ~n ~k:_ ->
      let cycle = n * (n - 1) in
      let on_set ~round =
        let s, d = pair_of_round ~n ~round in
        if s < d then [| s; d |] else [| d; s |]
      in
      let on_count_in ~from ~until ~cap =
        let m = until - from in
        if m <= 0 then (0, 0, 0) else (2 * m, 2, if 2 > cap then m else 0)
      in
      (* Next round >= round serving ordered pair (src, dst): the pair's
         fixed slot in the n(n-1) cycle, shifted to the current cycle. *)
      let next_serving ~round ~src ~dst =
        let idx = (src * (n - 1)) + (if dst > src then dst - 1 else dst) in
        round + ((idx - round) mod cycle + cycle) mod cycle
      in
      let next_transmission s ~round ~queue =
        List.fold_left
          (fun best dst -> Int.min best (next_serving ~round ~src:s.me ~dst))
          max_int (Pqueue.dests queue)
      in
      { Algorithm.on_set; on_count_in; next_transmission; ticks_offline = false;
        fast_forward = None })

include Algorithm.Marshal_codec (struct
  type nonrec state = state
end)
