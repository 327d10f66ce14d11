open Mac_channel

let coordinator = 0

type substage =
  | Idle (* the first, all-off phase *)
  | Counts
  | Offsets
  | Delivery

type state = {
  me : int;
  n : int;
  old : (int, unit) Hashtbl.t;   (* ids of this phase's old packets *)
  counts : int array;            (* coordinator only: per-station declared counts *)
  mutable stage : int;           (* receiving station v *)
  mutable sub : substage;
  mutable sub_start : int;
  mutable total : int;           (* substage-3 length for the current stage *)
  mutable my_offset : int;
  mutable my_count : int;        (* my declared old-packet count for v *)
  mutable coord_count : int;     (* coordinator's own packets for v *)
}

let name = "count-hop"
let plain_packet = false
let direct = true
let oblivious = false
let required_cap ~n:_ ~k:_ = 2
let static_schedule = None

let create ~n ~k:_ ~me =
  { me; n; old = Hashtbl.create 64; counts = Array.make n 0;
    stage = 0; sub = Idle; sub_start = 0; total = 0;
    my_offset = 0; my_count = 0; coord_count = 0 }

(* Participants of a counts substage: stations other than v and the
   coordinator, ascending. *)
let participant_count s = if s.stage = coordinator then s.n - 1 else s.n - 2

let participant_at s idx =
  (* idx-th station of {0..n-1} \ {coordinator, v}, ascending. Relies on
     coordinator = 0. *)
  let station = idx + 1 in
  if s.stage <> coordinator && station >= s.stage then station + 1 else station

(* Recipients of an offsets substage: stations other than the coordinator. *)
let recipient_at idx = idx + 1

let sub_length s = function
  | Idle -> s.n
  | Counts -> participant_count s
  | Offsets -> s.n - 1
  | Delivery -> s.total

let snapshot s ~queue =
  Hashtbl.reset s.old;
  Pqueue.iter queue ~f:(fun p -> Hashtbl.replace s.old p.Packet.id ())

let is_old s (p : Packet.t) = Hashtbl.mem s.old p.id

let is_old_for s v (p : Packet.t) = p.dst = v && is_old s p

let count_old_for s ~queue v =
  Pqueue.fold queue ~init:0 ~f:(fun acc p ->
      if is_old_for s v p then acc + 1 else acc)

(* Entering stage v: transmitters fix the count they will declare; the
   coordinator also fixes its own contribution. The counts stay valid
   through the stage because old packets for v leave a queue only during
   this very stage, through their owner's scheduled slots. *)
let enter_stage s ~queue =
  s.total <- 0;
  s.my_offset <- 0;
  s.my_count <- (if s.me = s.stage then 0 else count_old_for s ~queue s.stage);
  s.coord_count <- (if s.me = coordinator then s.my_count else 0);
  if s.me = coordinator then Array.fill s.counts 0 s.n 0

let rec advance s ~round ~queue =
  if round = s.sub_start + sub_length s s.sub then begin
    (match s.sub with
     | Idle ->
       snapshot s ~queue;
       s.stage <- 0;
       s.sub <- Counts;
       enter_stage s ~queue
     | Counts -> s.sub <- Offsets
     | Offsets -> s.sub <- Delivery
     | Delivery ->
       if s.stage = s.n - 1 then begin
         (* Phase over: everything now queued becomes old. *)
         snapshot s ~queue;
         s.stage <- 0
       end
       else s.stage <- s.stage + 1;
       s.sub <- Counts;
       enter_stage s ~queue);
    s.sub_start <- round;
    (* Empty substages (no participants, zero total) pass through. *)
    advance s ~round ~queue
  end

let on_duty s ~round ~queue =
  advance s ~round ~queue;
  let slot = round - s.sub_start in
  match s.sub with
  | Idle -> false
  | Counts -> s.me = coordinator || s.me = participant_at s slot
  | Offsets -> s.me = coordinator || s.me = recipient_at slot
  | Delivery ->
    s.me = s.stage
    || (s.me = coordinator && slot < s.coord_count)
    || (s.me <> coordinator && s.me <> s.stage
        && slot >= s.my_offset
        && slot < s.my_offset + s.my_count)

let act s ~round ~queue =
  let slot = round - s.sub_start in
  match s.sub with
  | Idle -> Action.Listen
  | Counts ->
    if s.me <> coordinator && s.me = participant_at s slot then
      Action.Transmit (Message.light [ Message.Count s.my_count ])
    else Action.Listen
  | Offsets ->
    if s.me = coordinator then begin
      let w = recipient_at slot in
      (* Offset of w: coordinator's packets first, then participants in
         ascending order. The stage total rides along so that every station
         can track the schedule. *)
      let offset = ref s.coord_count in
      for u = 1 to w - 1 do
        if u <> s.stage then offset := !offset + s.counts.(u)
      done;
      let total = ref s.coord_count in
      for u = 1 to s.n - 1 do
        if u <> s.stage then total := !total + s.counts.(u)
      done;
      Action.Transmit
        (Message.light [ Message.Count !offset; Message.Count !total ])
    end
    else Action.Listen
  | Delivery ->
    let mine =
      if s.me = coordinator then slot < s.coord_count
      else
        s.me <> s.stage && slot >= s.my_offset && slot < s.my_offset + s.my_count
    in
    if not mine then Action.Listen
    else begin
      match Pqueue.oldest_to_such queue s.stage (is_old s) with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None -> Action.Listen (* unreachable in lawful runs *)
    end

let observe s ~round ~queue:_ ~feedback =
  let slot = round - s.sub_start in
  (match s.sub, feedback with
   | Counts, Feedback.Heard m when s.me = coordinator ->
     (match m.Message.control with
      | [ Message.Count c ] -> s.counts.(participant_at s slot) <- c
      | _ -> ())
   | Offsets, Feedback.Heard m when s.me = recipient_at slot ->
     (match m.Message.control with
      | [ Message.Count offset; Message.Count total ] ->
        s.my_offset <- offset;
        s.total <- total
      | _ -> ())
   | Offsets, Feedback.Heard m when s.me = coordinator ->
     (* The coordinator hears its own message; it fixes the stage total when
        transmitting the first offset. *)
     (match m.Message.control with
      | [ Message.Count _; Message.Count total ] -> s.total <- total
      | _ -> ())
   | _ -> ());
  Reaction.No_reaction

let offline_tick _ ~round:_ ~queue:_ = ()

let sparse = None

include Algorithm.Marshal_codec (struct
  type nonrec state = state
end)
