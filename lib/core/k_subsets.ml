open Mac_channel
open Mac_broadcast

let in_subset subset station = Array.exists (fun m -> m = station) subset

(* Per-round membership lookup must be O(1): subset_of.(t mod γ).(station). *)
let membership ~n (sets : int array array) =
  Array.map
    (fun subset ->
      let row = Array.make n false in
      Array.iter (fun station -> row.(station) <- true) subset;
      row)
    sets

let threads_in (sets : int array array) ~src ~dst =
  let result = ref [] in
  for i = Array.length sets - 1 downto 0 do
    if in_subset sets.(i) src && in_subset sets.(i) dst then result := i :: !result
  done;
  !result

let threads_for ~n ~k ~src ~dst = threads_in (Combi.k_subsets ~n ~k) ~src ~dst

(* The least-loaded thread of [eligible.(i..)] and [best], the earliest on
   ties. A top-level loop over typed arrays: no closure, no ref, and an
   integer comparison rather than polymorphic [compare]. *)
let rec least_loaded (counts : int array) (eligible : int array) best i =
  if i >= Array.length eligible then best
  else
    let t = eligible.(i) in
    least_loaded counts eligible
      (if counts.(t) < counts.(best) then t else best)
      (i + 1)

(* Scheduling state of one thread at one station. MBTF threads track the
   replicated list; RRW threads track the replicated token ring plus the
   holder's withheld batch size. *)
type thread_sched =
  | Mbtf_thread of Mbtf_list.t
  | Rrw_thread of { ring : Token_ring.t; mutable batch : int }

type thread_state = {
  sched : thread_sched;
  fifo : Packet.t Queue.t; (* my packets assigned to this thread, FIFO *)
}

type state = {
  me : int;
  n : int;
  k : int;
  gamma : int;
  threads : (int, thread_state) Hashtbl.t; (* thread index -> state *)
  threads_with : int array array;          (* per destination w *)
  alloc_count : int array array;           (* x_i(w): [w].(thread) *)
  assigned : (int, int) Hashtbl.t;         (* packet id -> thread *)
  mutable synced_phase : int;
  mutable rewalk : bool; (* the last allocation ran late: walk the whole queue *)
  mutable last_sent : Packet.t option;     (* transmission awaiting feedback *)
}

let algorithm ?(discipline = `Mbtf) ?(allocation = `Balanced) ~n ~k () =
  if k < 2 || k >= n then invalid_arg "K_subsets: need 2 <= k < n";
  let sets = Combi.k_subsets ~n ~k in
  let member = membership ~n sets in
  let gamma = Array.length sets in
  let module M = struct
    type nonrec state = state

    let name =
      Printf.sprintf "k-subsets(k=%d,%s%s)" k
        (match discipline with `Mbtf -> "mbtf" | `Rrw -> "rrw")
        (match allocation with `Balanced -> "" | `First_fit -> ",first-fit")

    let plain_packet = (discipline = `Rrw)
    let direct = true
    let oblivious = true
    let required_cap ~n:_ ~k = k

    let static_schedule =
      Some (fun ~n:_ ~k:_ ~me ~round -> member.(round mod gamma).(me))

    let create ~n:n' ~k:_ ~me =
      assert (n' = n);
      let threads = Hashtbl.create 64 in
      Array.iteri
        (fun i subset ->
          if in_subset subset me then begin
            let sched =
              match discipline with
              | `Mbtf -> Mbtf_thread (Mbtf_list.create ~members:subset)
              | `Rrw -> Rrw_thread { ring = Token_ring.create ~members:subset; batch = 0 }
            in
            Hashtbl.replace threads i { sched; fifo = Queue.create () }
          end)
        sets;
      let threads_with =
        Array.init n (fun w ->
            if w = me then [||]
            else Array.of_list (threads_in sets ~src:me ~dst:w))
      in
      { me; n; k; gamma; threads; threads_with;
        alloc_count = Array.make_matrix n gamma 0;
        assigned = Hashtbl.create 256;
        synced_phase = 0; rewalk = false; last_sent = None }

    (* Assign a packet that arrived before the phase began to an eligible
       thread, balancing the per-destination counters. *)
    let assign s ~phase_start (p : Packet.t) =
      if p.injected_at < phase_start then begin
        let w = p.dst in
        let eligible = s.threads_with.(w) in
        let counts = s.alloc_count.(w) in
        let best =
          match allocation with
          | `First_fit -> eligible.(0)
          | `Balanced -> least_loaded counts eligible eligible.(0) 1
        in
        counts.(best) <- counts.(best) + 1;
        Hashtbl.replace s.assigned p.id best;
        Queue.add p (Hashtbl.find s.threads best).fifo
      end

    let unassigned s (p : Packet.t) = not (Hashtbl.mem s.assigned p.id)

    (* Phase-boundary allocation: spread last phase's arrivals over the
       eligible threads. An allocation that runs in its phase's first round
       leaves the packets not in [assigned] as an arrival-order suffix of
       the queue: it assigns every packet but this round's injections,
       which sit at the tail. After it, packets join only at the tail
       (injections, and a stranded packet [observe] has just unassigned),
       and a packet leaves [assigned] only by leaving the queue. So the
       next allocation stops at the newest assigned packet — by membership,
       not [injected_at], because a stranded packet comes back with its
       old injection round.
       Only a restart allocates late: [create] runs mid-phase and [sync]
       allocates at once, skipping everything injected since the phase
       began. An older packet that stranded earlier in that phase sits
       behind such injections and is assigned, so the suffix breaks; the
       next allocation walks the whole queue, which restores it. *)
    let allocate s ~queue ~round ~phase_start =
      if s.rewalk then
        Pqueue.iter queue ~f:(fun p ->
            if unassigned s p then assign s ~phase_start p)
      else Pqueue.iter_suffix queue (unassigned s) ~f:(assign s ~phase_start);
      s.rewalk <- round > phase_start

    let sync s ~round ~queue =
      let phase = round / s.gamma in
      if phase > s.synced_phase || (round = 0 && s.synced_phase = 0) then begin
        s.synced_phase <- phase;
        allocate s ~queue ~round ~phase_start:(phase * s.gamma)
      end

    let on_duty s ~round ~queue =
      sync s ~round ~queue;
      Hashtbl.mem s.threads (round mod s.gamma)

    let front_packet (ts : thread_state) ~queue =
      (* Drop stale heads defensively; in lawful runs the head is live. *)
      let rec go () =
        match Queue.peek_opt ts.fifo with
        | None -> None
        | Some p ->
          if Pqueue.mem queue p then Some p
          else begin
            ignore (Queue.pop ts.fifo);
            go ()
          end
      in
      go ()

    let act s ~round ~queue =
      let i = round mod s.gamma in
      s.last_sent <- None;
      match Hashtbl.find_opt s.threads i with
      | None -> Action.Listen
      | Some ts ->
        (match ts.sched with
         | Mbtf_thread list ->
           if Mbtf_list.holder list <> s.me then Action.Listen
           else begin
             match front_packet ts ~queue with
             | None -> Action.Listen
             | Some p ->
               let big = Queue.length ts.fifo >= s.k in
               s.last_sent <- Some p;
               Action.Transmit (Message.make ~packet:p [ Message.Flag big ])
           end
         | Rrw_thread r ->
           if Token_ring.holder r.ring <> s.me || r.batch <= 0 then Action.Listen
           else begin
             match front_packet ts ~queue with
             | None ->
               r.batch <- 0;
               Action.Listen
             | Some p ->
               s.last_sent <- Some p;
               Action.Transmit (Message.packet_only p)
           end)

    let observe s ~round ~queue:_ ~feedback =
      let i = round mod s.gamma in
      (match Hashtbl.find_opt s.threads i with
       | None -> ()
       | Some ts ->
         (match feedback, s.last_sent with
          | Feedback.Heard m, Some p ->
            (match m.Message.packet with
             | Some q when Packet.equal p q ->
               (* Our transmission succeeded: retire it locally. *)
               ignore (Queue.pop ts.fifo);
               Hashtbl.remove s.assigned p.Packet.id
             | Some _ | None -> ())
          | _ -> ());
         (match ts.sched, feedback with
          | Mbtf_thread list, Feedback.Heard m ->
            (match m.Message.control with
             | [ Message.Flag true ] -> Mbtf_list.note_heard_big list
             | _ -> Mbtf_list.note_heard_small list)
          | Mbtf_thread list, (Feedback.Silence | Feedback.Collision) ->
            Mbtf_list.note_silence list
          | Rrw_thread r, Feedback.Heard _ ->
            Token_ring.note_heard r.ring;
            if Token_ring.holder r.ring = s.me then r.batch <- r.batch - 1
          | Rrw_thread r, (Feedback.Silence | Feedback.Collision) ->
            Token_ring.note_silence r.ring;
            (* A fresh holder withholds: it may send only the packets
               present at the moment it received the token. *)
            if Token_ring.holder r.ring = s.me then r.batch <- Queue.length ts.fifo));
      s.last_sent <- None;
      Reaction.No_reaction

    (* Keep phase allocation running while switched off: assignment is
       local bookkeeping over the station's own queue, not channel use. *)
    let offline_tick s ~round ~queue = sync s ~round ~queue

    (* Under MBTF, thread i is active when [round mod γ = i]; on a silent
       active round each member's replica of its list passes the token one
       position on. The holder sends the front of the thread's FIFO, so a
       station transmits at its next turn in a thread whose FIFO is not
       empty. The phase allocation is the other state a silent stretch
       moves: it runs at every phase start, on every station, whatever the
       channel did. A station holding packets the allocation has not
       assigned yet (every assigned packet is queued, so there are more
       queued than assigned) may gain a FIFO entry at the next phase
       start, so its answer is at most that round, which then runs
       concretely. A stretch crossing a phase start therefore finds every
       queue fully assigned, and its allocations only record the phase;
       the last one leaves what the dense run leaves. RRW's holder changes
       its batch on silent rounds, so that discipline keeps no hook. *)
    let sparse =
      match discipline with
      | `Rrw -> None
      | `Mbtf ->
        Some
          (fun ~n:_ ~k:_ ->
            let rot = Rotation.make ~slots:gamma ~width:1 in
            (* Each station's threads by index, rebuilt whenever the
               engine hands over a state they were not built from (a
               restart or a resume makes a new one): the skips and bound
               queries below then never hash. *)
            let built = Array.make n None and by_index = Array.make n [||] in
            let threads_of s =
              (match built.(s.me) with
               | Some s' when s' == s -> ()
               | _ ->
                 let a = Array.make gamma None in
                 Hashtbl.iter (fun i ts -> a.(i) <- Some ts) s.threads;
                 by_index.(s.me) <- a;
                 built.(s.me) <- Some s);
              by_index.(s.me)
            in
            let on_set ~round = sets.(round mod gamma) in
            let on_count_in ~from ~until ~cap =
              let m = until - from in
              if m <= 0 then (0, 0, 0) else (k * m, k, if k > cap then m else 0)
            in
            let rec next_send s ~round threads best i =
              if i >= gamma then best
              else
                next_send s ~round threads
                  (match threads.(i) with
                   | Some { sched = Mbtf_thread list; fifo }
                     when not (Queue.is_empty fifo) ->
                     Int.min best
                       (Rotation.nth_from rot ~slot:i ~round
                          (Mbtf_list.silences_until_holder list s.me))
                   | _ -> best)
                  (i + 1)
            in
            let next_transmission s ~round ~queue =
              next_send s ~round (threads_of s)
                (if Pqueue.size queue > Hashtbl.length s.assigned then
                   (round + gamma - 1) / gamma * gamma
                 else max_int)
                0
            in
            let step_thread states () i c =
              let members = sets.(i) in
              for j = 0 to Array.length members - 1 do
                match (threads_of states.(members.(j))).(i) with
                | Some { sched = Mbtf_thread list; _ } ->
                  Mbtf_list.note_silences list c
                | Some { sched = Rrw_thread _; _ } | None ->
                  () (* unreachable: members hold an MBTF thread *)
              done
            in
            let fast_forward states ~queues ~from ~until =
              Rotation.iter_active rot ~from ~until step_thread states ();
              let first = (from + gamma - 1) / gamma * gamma in
              let last = (until - 1) / gamma * gamma in
              if first < until then
                Array.iteri
                  (fun m s ->
                    sync s ~round:first ~queue:queues.(m);
                    if last > first then sync s ~round:last ~queue:queues.(m))
                  states
            in
            { Algorithm.on_set; on_count_in; next_transmission;
              ticks_offline = true; fast_forward = Some fast_forward })

    include Algorithm.Marshal_codec (struct
      type nonrec state = state
    end)

    (* Version 2 added [rewalk]. *)
    let state_version = 2
  end in
  (module M : Algorithm.S)
