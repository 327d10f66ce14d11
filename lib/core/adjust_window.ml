open Mac_channel

let window_layout ~n ~l =
  let lg_l = Combi.lg l in
  let gossip = n * n * (2 + (3 * lg_l)) in
  let aux = 8 * n * n * n * lg_l in
  (gossip, l - gossip - aux, aux)

(* The paper wants the smallest L whose Main stage fills at least half the
   window. It bounds gossip+auxiliary by 9n^3 lg L (valid for large n); we
   use the exact stage lengths so the invariant holds for every n >= 3. *)
let initial_window ~n =
  let need l =
    let gossip, _, aux = window_layout ~n ~l in
    2 * (gossip + aux)
  in
  let rec fix l =
    let target = need l in
    if l >= target then l else fix target
  in
  fix 2

type stage =
  | Gossip
  | Main
  | Auxiliary

type state = {
  me : int;
  n : int;
  mutable window_start : int;
  mutable l : int;
  mutable lg_l : int;
  mutable l_g : int;
  mutable l_m : int;
  mutable l_a : int;
  old : (int, unit) Hashtbl.t;     (* ids queued when the window began *)
  adopted : (int, unit) Hashtbl.t; (* ids adopted during this window *)
  (* My declared numbers (window-start snapshot). *)
  mutable my_small : bool;
  mutable my_over : bool;
  mutable my_q : int;       (* min(size, L) *)
  my_cnt : int array;       (* old packets per destination *)
  my_below : int array;     (* prefix sums of my_cnt *)
  (* What gossip taught me about everyone. *)
  is_large : bool array;
  over_l : bool array;
  qsize : int array;
  cnt_me : int array;
  cnt_below : int array;
  (* Main-stage schedule, fixed once per window when Main begins. *)
  mutable main_ready : bool;
  mutable dedicated : int;  (* station owning a dedicated Main; -1 = normal *)
  starts : int array;       (* per-sender first slot of its Main segment *)
}

let name = "adjust-window"
let plain_packet = true
let direct = false
let oblivious = false
let required_cap ~n:_ ~k:_ = 2
let static_schedule = None

let small_threshold s = 4 * s.n * s.lg_l

(* Window-start snapshot: remember the old cohort and fix the numbers this
   station will declare during Gossip. *)
let open_window s ~round ~l ~queue =
  s.window_start <- round;
  s.l <- l;
  s.lg_l <- Combi.lg l;
  let g, m, a = window_layout ~n:s.n ~l in
  s.l_g <- g;
  s.l_m <- m;
  s.l_a <- a;
  Hashtbl.reset s.old;
  Hashtbl.reset s.adopted;
  Pqueue.iter queue ~f:(fun p -> Hashtbl.replace s.old p.Packet.id ());
  let size = Pqueue.size queue in
  s.my_small <- size < small_threshold s;
  s.my_over <- size > l;
  s.my_q <- min size l;
  for w = 0 to s.n - 1 do
    s.my_cnt.(w) <- Pqueue.count_to queue w
  done;
  let acc = ref 0 in
  for w = 0 to s.n - 1 do
    s.my_below.(w) <- !acc;
    acc := !acc + s.my_cnt.(w)
  done;
  Array.fill s.is_large 0 s.n false;
  Array.fill s.over_l 0 s.n false;
  Array.fill s.qsize 0 s.n 0;
  Array.fill s.cnt_me 0 s.n 0;
  Array.fill s.cnt_below 0 s.n 0;
  (* I know my own numbers without gossiping to myself. *)
  s.is_large.(s.me) <- not s.my_small;
  s.over_l.(s.me) <- s.my_over;
  s.qsize.(s.me) <- s.my_q;
  s.cnt_me.(s.me) <- 0;
  s.cnt_below.(s.me) <- s.my_below.(s.me);
  s.main_ready <- false;
  s.dedicated <- -1

let create ~n ~k:_ ~me =
  let s =
    { me; n; window_start = 0; l = 0; lg_l = 0; l_g = 0; l_m = 0; l_a = 0;
      old = Hashtbl.create 256; adopted = Hashtbl.create 64;
      my_small = true; my_over = false; my_q = 0;
      my_cnt = Array.make n 0; my_below = Array.make n 0;
      is_large = Array.make n false; over_l = Array.make n false;
      qsize = Array.make n 0; cnt_me = Array.make n 0;
      cnt_below = Array.make n 0;
      main_ready = false; dedicated = -1; starts = Array.make n 0 }
  in
  s.l <- initial_window ~n;
  s

(* End-of-window decision, identical at every station: double when someone
   declared more than L packets or the declared backlog exceeds the Main
   stage that just ran. *)
let close_window s ~round ~queue =
  let over_any = Array.exists (fun b -> b) s.over_l in
  let declared = ref 0 in
  for i = 0 to s.n - 1 do
    if s.is_large.(i) then declared := !declared + s.qsize.(i)
  done;
  let l' = if over_any || !declared > s.l_m then 2 * s.l else s.l in
  open_window s ~round ~l:l' ~queue

let sync s ~round ~queue =
  if round = 0 && s.lg_l = 0 then open_window s ~round ~l:s.l ~queue
  else if round = s.window_start + s.l then close_window s ~round ~queue

(* ---- Gossip stage ---- *)

let gossip_phase_len s = 2 + (3 * s.lg_l)

(* Phase (i, j) and round-within-phase for a gossip offset. *)
let gossip_pos s off =
  let len = gossip_phase_len s in
  let phase = off / len in
  (phase / s.n, phase mod s.n, off mod len)

(* The bit a large station i conveys in round r of phase (i, j): presence,
   the over-L flag, then three lgL-bit numbers, most significant bit first. *)
let gossip_bit s ~j ~r =
  if r = 0 then true
  else if r = 1 then s.my_over
  else begin
    let idx = (r - 2) / s.lg_l in
    let bit = (r - 2) mod s.lg_l in
    let value =
      match idx with
      | 0 -> s.my_q
      | 1 -> min s.my_cnt.(j) s.l
      | _ -> min s.my_below.(j) s.l
    in
    value lsr (s.lg_l - 1 - bit) land 1 = 1
  end

(* The packet spent on a 1-bit: preferably one addressed to the listener
   (it is consumed on the spot), otherwise the oldest packet we hold. *)
let coded_transfer_packet ~queue ~j =
  match Pqueue.oldest_to queue j with
  | Some p -> Some p
  | None -> Pqueue.oldest queue

(* ---- Main stage ---- *)

let prepare_main s =
  if not s.main_ready then begin
    s.main_ready <- true;
    s.dedicated <- -1;
    for i = s.n - 1 downto 0 do
      if s.over_l.(i) then s.dedicated <- i
    done;
    let acc = ref 0 in
    for i = 0 to s.n - 1 do
      s.starts.(i) <- !acc;
      if s.is_large.(i) && not s.over_l.(i) then acc := !acc + s.qsize.(i)
    done
  end

(* In dedicated mode the owner transmits every round towards round-robin
   listeners (all stations but the owner, ascending). *)
let dedicated_listener s ~slot =
  let idx = slot mod (s.n - 1) in
  if idx >= s.dedicated then idx + 1 else idx

(* The two Main-slot lookups run for every station in every Main round;
   they are top-level loops so that a lookup allocates no closure. *)

(* The first destination [w] whose sub-interval of my segment covers the
   relative slot [rel], if any. *)
let rec dest_covering s rel w =
  if w >= s.n then None
  else if rel < s.my_below.(w) + s.my_cnt.(w) then Some w
  else dest_covering s rel (w + 1)

(* My sending destination for a Main slot, if the slot lies in my segment. *)
let main_my_dest s ~slot =
  if s.my_small || s.my_over then None
  else begin
    let rel = slot - s.starts.(s.me) in
    if rel < 0 || rel >= s.my_q then None else dest_covering s rel 0
  end

let rec listening_from s slot i =
  if i >= s.n then false
  else if
    i <> s.me && s.is_large.(i) && not s.over_l.(i)
    && slot >= s.starts.(i) + s.cnt_below.(i)
    && slot < s.starts.(i) + s.cnt_below.(i) + s.cnt_me.(i)
  then true
  else listening_from s slot (i + 1)

(* Whether I must listen in a Main slot: some large sender's sub-interval
   for destination me covers it. *)
let main_listening s ~slot = listening_from s slot 0

(* ---- Auxiliary stage ---- *)

let aux_pos s off =
  let e = off mod (s.n * s.n) in
  (e / s.n, e mod s.n)

let aux_eligible s (p : Packet.t) =
  Hashtbl.mem s.adopted p.id || (s.my_small && Hashtbl.mem s.old p.id)

let aux_packet s ~queue ~j = Pqueue.oldest_to_such queue j (aux_eligible s)

(* ---- Algorithm hooks ---- *)

let stage_of s off =
  if off < s.l_g then (Gossip, off)
  else if off < s.l_g + s.l_m then (Main, off - s.l_g)
  else (Auxiliary, off - s.l_g - s.l_m)

let on_duty s ~round ~queue =
  sync s ~round ~queue;
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip, off ->
    let i, j, _ = gossip_pos s off in
    if i = j then false
    else if s.me = j then true
    else s.me = i && not s.my_small
  | Main, slot ->
    prepare_main s;
    if s.dedicated >= 0 then
      s.me = s.dedicated || s.me = dedicated_listener s ~slot
    else main_my_dest s ~slot <> None || main_listening s ~slot
  | Auxiliary, off ->
    let i, j = aux_pos s off in
    if i = j then false
    else if s.me = j then true
    else s.me = i && aux_packet s ~queue ~j <> None

let act s ~round ~queue =
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip, off ->
    let i, j, r = gossip_pos s off in
    if s.me <> i || i = j || s.my_small then Action.Listen
    else if not (gossip_bit s ~j ~r) then Action.Listen
    else begin
      match coded_transfer_packet ~queue ~j with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None ->
        (* Unreachable: the large threshold covers the whole gossip spend. *)
        Action.Listen
    end
  | Main, slot ->
    prepare_main s;
    if s.dedicated >= 0 then begin
      if s.me <> s.dedicated then Action.Listen
      else begin
        let w = dedicated_listener s ~slot in
        match Pqueue.oldest_to queue w with
        | Some p -> Action.Transmit (Message.packet_only p)
        | None -> Action.Listen
      end
    end
    else begin
      match main_my_dest s ~slot with
      | None -> Action.Listen
      | Some w ->
        (match Pqueue.oldest_to queue w with
         | Some p -> Action.Transmit (Message.packet_only p)
         | None -> Action.Listen)
    end
  | Auxiliary, off ->
    let i, j = aux_pos s off in
    if s.me <> i || i = j then Action.Listen
    else begin
      match aux_packet s ~queue ~j with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None -> Action.Listen
    end

let observe s ~round ~queue:_ ~feedback =
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip, off ->
    let i, j, r = gossip_pos s off in
    if s.me <> j || i = j then Reaction.No_reaction
    else begin
      let heard_packet =
        match feedback with
        | Feedback.Heard m -> m.Message.packet
        | Feedback.Silence | Feedback.Collision -> None
      in
      let bit = heard_packet <> None in
      (if r = 0 then s.is_large.(i) <- bit
       else if r = 1 then (if bit then s.over_l.(i) <- true)
       else begin
         let idx = (r - 2) / s.lg_l in
         let cell =
           match idx with
           | 0 -> s.qsize
           | 1 -> s.cnt_me
           | _ -> s.cnt_below
         in
         cell.(i) <- (2 * cell.(i)) + Bool.to_int bit
       end);
      match heard_packet with
      | Some p when p.Packet.dst <> s.me ->
        Hashtbl.replace s.adopted p.Packet.id ();
        Reaction.Adopt_heard_packet
      | Some _ | None -> Reaction.No_reaction
    end
  | Main, _ | Auxiliary, _ -> Reaction.No_reaction

let offline_tick s ~round ~queue = sync s ~round ~queue

let sparse = None

include Algorithm.Marshal_codec (struct
  type nonrec state = state
end)
