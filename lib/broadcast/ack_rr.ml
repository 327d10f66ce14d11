open Mac_channel

type state = { me : int; n : int }

let name = "ack-rr"
let plain_packet = true
let direct = true
let oblivious = true
let required_cap ~n ~k:_ = n
let static_schedule = Some (fun ~n:_ ~k:_ ~me:_ ~round:_ -> true)
let create ~n ~k:_ ~me = { me; n }
let on_duty _ ~round:_ ~queue:_ = true

let act s ~round ~queue =
  if round mod s.n <> s.me then Action.Listen
  else
    match Pqueue.oldest queue with
    | Some p -> Action.Transmit (Message.packet_only p)
    | None -> Action.Listen

let observe _ ~round:_ ~queue:_ ~feedback:_ = Reaction.No_reaction
let offline_tick _ ~round:_ ~queue:_ = ()

(* The round-robin slot assignment is pure in the round number and
   stations carry no evolving state, so the sparse engine can skip silent
   stretches analytically without a fast-forward: every station is always
   on, and a station holding packets next transmits in its own slot. *)
let sparse =
  Some
    (fun ~n ~k:_ ->
      let on_set ~round:_ = Array.init n Fun.id in
      let on_count_in ~from ~until ~cap =
        let m = until - from in
        if m <= 0 then (0, 0, 0) else (n * m, n, if n > cap then m else 0)
      in
      let next_transmission s ~round ~queue:_ =
        round + ((((s.me - round) mod n) + n) mod n)
      in
      { Algorithm.on_set; on_count_in; next_transmission; ticks_offline = false;
        fast_forward = None })

include Algorithm.Marshal_codec (struct
  type nonrec state = state
end)
