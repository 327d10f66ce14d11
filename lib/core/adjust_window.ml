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
  aux_none : bool array;    (* no eligible Auxiliary packet for j this window *)
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
  s.dedicated <- -1;
  Array.fill s.aux_none 0 s.n false

let create ~n ~k:_ ~me =
  let s =
    { me; n; window_start = 0; l = 0; lg_l = 0; l_g = 0; l_m = 0; l_a = 0;
      old = Hashtbl.create 256; adopted = Hashtbl.create 64;
      my_small = true; my_over = false; my_q = 0;
      my_cnt = Array.make n 0; my_below = Array.make n 0;
      is_large = Array.make n false; over_l = Array.make n false;
      qsize = Array.make n 0; cnt_me = Array.make n 0;
      cnt_below = Array.make n 0;
      main_ready = false; dedicated = -1; starts = Array.make n 0;
      aux_none = Array.make n false }
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

(* A gossip offset lies in phase (i, j) = (phase / n, phase mod n), at
   round-within-phase [gossip_round]. The per-round lookups return ints,
   not tuples, so that they allocate nothing. *)
let gossip_phase s off = off / gossip_phase_len s
let gossip_round s off = off mod gossip_phase_len s

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
   relative slot [rel]; -1 if none. *)
let rec dest_covering s rel w =
  if w >= s.n then -1
  else if rel < s.my_below.(w) + s.my_cnt.(w) then w
  else dest_covering s rel (w + 1)

(* My sending destination for a Main slot; -1 unless the slot lies in my
   segment. *)
let main_my_dest s ~slot =
  if s.my_small || s.my_over then -1
  else begin
    let rel = slot - s.starts.(s.me) in
    if rel < 0 || rel >= s.my_q then -1 else dest_covering s rel 0
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

(* An auxiliary offset lies in pair (i, j) = (slot / n, slot mod n). *)
let aux_slot s off = off mod (s.n * s.n)

let aux_eligible s (p : Packet.t) =
  Hashtbl.mem s.adopted p.id || (s.my_small && Hashtbl.mem s.old p.id)

(* The oldest eligible packet for j. Once a lookup finds none, none
   appears until the window closes: eligibility is fixed per packet during
   the auxiliary stage ([old], [adopted] and [my_small] change only at
   window open and in Gossip's [observe]), fresh injections are never
   eligible, and a packet comes back stranded only after this station sent
   it, which took a lookup that found it. So a flood's backlog of
   ineligible packets is scanned once per destination and window, not on
   every slot. *)
let aux_packet s ~queue ~j =
  if s.aux_none.(j) then None
  else begin
    let found = Pqueue.oldest_to_such queue j (aux_eligible s) in
    if Option.is_none found then s.aux_none.(j) <- true;
    found
  end

(* ---- Algorithm hooks ---- *)

(* The stage of a window offset; the offset within the stage is [off] in
   Gossip, [off - l_g] in Main and [off - l_g - l_m] in Auxiliary. *)
let stage_of s off =
  if off < s.l_g then Gossip
  else if off < s.l_g + s.l_m then Main
  else Auxiliary

let on_duty s ~round ~queue =
  sync s ~round ~queue;
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip ->
    let phase = gossip_phase s off in
    let i = phase / s.n and j = phase mod s.n in
    if i = j then false
    else if s.me = j then true
    else s.me = i && not s.my_small
  | Main ->
    let slot = off - s.l_g in
    prepare_main s;
    if s.dedicated >= 0 then
      s.me = s.dedicated || s.me = dedicated_listener s ~slot
    else main_my_dest s ~slot >= 0 || main_listening s ~slot
  | Auxiliary ->
    let e = aux_slot s (off - s.l_g - s.l_m) in
    let i = e / s.n and j = e mod s.n in
    if i = j then false
    else if s.me = j then true
    else s.me = i && Option.is_some (aux_packet s ~queue ~j)

let act s ~round ~queue =
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip ->
    let phase = gossip_phase s off in
    let i = phase / s.n and j = phase mod s.n in
    if s.me <> i || i = j || s.my_small then Action.Listen
    else if not (gossip_bit s ~j ~r:(gossip_round s off)) then Action.Listen
    else begin
      match coded_transfer_packet ~queue ~j with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None ->
        (* Unreachable: the large threshold covers the whole gossip spend. *)
        Action.Listen
    end
  | Main ->
    let slot = off - s.l_g in
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
      let w = main_my_dest s ~slot in
      if w < 0 then Action.Listen
      else
        match Pqueue.oldest_to queue w with
        | Some p -> Action.Transmit (Message.packet_only p)
        | None -> Action.Listen
    end
  | Auxiliary ->
    let e = aux_slot s (off - s.l_g - s.l_m) in
    let i = e / s.n and j = e mod s.n in
    if s.me <> i || i = j then Action.Listen
    else begin
      match aux_packet s ~queue ~j with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None -> Action.Listen
    end

let observe s ~round ~queue:_ ~feedback =
  let off = round - s.window_start in
  match stage_of s off with
  | Gossip ->
    let phase = gossip_phase s off in
    let i = phase / s.n and j = phase mod s.n and r = gossip_round s off in
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
  | Main | Auxiliary -> Reaction.No_reaction

let offline_tick s ~round ~queue = sync s ~round ~queue

let sparse = None

include Algorithm.Marshal_codec (struct
  type nonrec state = state
end)

(* Version 2 added [aux_none]. *)
let state_version = 2
