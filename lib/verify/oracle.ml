open Mac_channel

exception Violation of string

(* Summary fields the oracle does not compute: the labels and shape of
   the run, which it is handed, and the p99 read-out of the engine's
   log-bucketed histogram. *)
let unmodelled = [ "algorithm"; "adversary"; "n"; "k"; "p99_delay" ]

(* One record per packet ever injected into a queue, kept in a plain list
   and found by linear scan — the naive registry. *)
type flight = {
  packet : Packet.t;
  mutable delivered : bool;
  mutable hops : int;
}

let run ~algorithm:(module A : Algorithm.S) ~n ~k ~rate ~burst ~pacing ~pattern
    ~rounds ~drain ?(strict = false) ?faults () =
  let cap = A.required_cap ~n ~k in
  let queues = Array.init n (fun _ -> Pqueue.create ~n) in
  let states = Array.init n (fun me -> A.create ~n ~k ~me) in
  let flights : flight list ref = ref [] in
  let next_id = ref 0 in
  let prev_on = Array.make n false in
  let on = Array.make n false in
  let crashed = Array.make n false in
  let jam_now = ref false in
  let noise_now = ref false in
  let events_rev : (int * Event.t) list ref = ref [] in
  let emit ~round ev = events_rev := (round, ev) :: !events_rev in

  (* The exact leaky bucket, restated: tokens start at rate + burst and
     are clamped there, every admitted packet costs one token, every
     round adds rate. All arithmetic is rational — this is the paper's
     recurrence, not a port of [Leaky_bucket]. *)
  if not (Qrat.sign rate > 0 && Qrat.compare rate Qrat.one <= 0) then
    invalid_arg "Oracle: rate must be in (0, 1]";
  if Qrat.compare burst Qrat.one < 0 then invalid_arg "Oracle: burst must be >= 1";
  let bucket_cap = Qrat.add rate burst in
  let tokens = ref bucket_cap in

  (* Naive scans, recomputed on demand. *)
  let station_queue i = Pqueue.fold queues.(i) ~init:0 ~f:(fun c _ -> c + 1) in
  let scan_total () =
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + station_queue i
    done;
    !total
  in
  let find_flight id =
    match List.find_opt (fun f -> f.packet.Packet.id = id) !flights with
    | Some f -> f
    | None -> raise (Violation "oracle lost track of a packet")
  in
  let remove_from_queue i (p : Packet.t) =
    if not (Pqueue.remove queues.(i) p) then
      raise (Violation "heard packet missing from the transmitter's queue")
  in

  (* Digest counters. *)
  let injected = ref 0 and delivered = ref 0 in
  let normal_rounds = ref 0 and drain_rounds = ref 0 in
  let max_delay = ref 0 and delay_sum = ref 0.0 in
  let max_total_queue = ref 0 and max_station_queue = ref 0 in
  let max_on = ref 0 and on_total = ref 0 in
  let silent_rounds = ref 0 and light_rounds = ref 0 in
  let delivery_rounds = ref 0 and relay_rounds = ref 0 in
  let collision_rounds = ref 0 and max_hops = ref 0 in
  let control_bits_total = ref 0 and control_bits_max = ref 0 in
  let cap_exceeded = ref 0 and stranded = ref 0 in
  let adoption_conflicts = ref 0 and spurious_adoptions = ref 0 in
  let crashes = ref 0 and restarts = ref 0 in
  let jammed_rounds = ref 0 and noise_rounds = ref 0 in
  let lost = ref 0 in
  let first_fault_round = ref (-1) and last_fault_round = ref (-1) in
  let pre_fault_queue = ref 0 and post_fault_peak = ref 0 in
  let last_exceed = ref (-1) in

  (* [backlog] is the total queue size at the instant the fault is booked
     — for a crash that drops its queue, the size measured just before
     the drop, which is what "backlog before the first fault" means. *)
  let note_fault ~round ~backlog =
    if !first_fault_round < 0 then begin
      first_fault_round := round;
      pre_fault_queue := backlog;
      post_fault_peak := backlog
    end;
    last_fault_round := round;
    if backlog > !post_fault_peak then post_fault_peak := backlog
  in
  let note_jammed ~round ~noise =
    note_fault ~round ~backlog:(scan_total ());
    incr jammed_rounds;
    if noise then incr noise_rounds
  in

  let violation note msg =
    note ();
    if strict then raise (Violation msg)
  in

  let plan =
    match faults with
    | Some p when not (Mac_faults.Fault_plan.is_empty p) -> Some p
    | _ -> None
  in
  let apply_faults round =
    match plan with
    | None -> ()
    | Some p ->
      jam_now := false;
      noise_now := false;
      List.iter
        (fun (a : Mac_faults.Fault_plan.action) ->
          match a with
          | Crash { station = i; queue = policy } ->
            if i < 0 || i >= n then
              raise
                (Violation
                   (Printf.sprintf "fault plan crashes station %d (n = %d)" i n));
            if not crashed.(i) then begin
              crashed.(i) <- true;
              let backlog = scan_total () in
              let dropped =
                match policy with
                | Mac_faults.Fault_plan.Retain -> 0
                | Mac_faults.Fault_plan.Drop ->
                  let gone = Pqueue.drain queues.(i) in
                  flights :=
                    List.filter
                      (fun f ->
                        not
                          (List.exists
                             (fun (q : Packet.t) -> q.Packet.id = f.packet.Packet.id)
                             gone))
                      !flights;
                  List.length gone
              in
              lost := !lost + dropped;
              note_fault ~round ~backlog;
              incr crashes;
              emit ~round (Event.Station_crashed { station = i; lost = dropped })
            end
          | Restart { station = i } ->
            if i < 0 || i >= n then
              raise
                (Violation
                   (Printf.sprintf "fault plan restarts station %d (n = %d)" i n));
            if crashed.(i) then begin
              crashed.(i) <- false;
              states.(i) <- A.create ~n ~k ~me:i;
              note_fault ~round ~backlog:(scan_total ());
              incr restarts;
              emit ~round (Event.Station_restarted { station = i })
            end
          | Jam -> jam_now := true
          | Noise -> noise_now := true)
        (Mac_faults.Fault_plan.actions p ~round)
  in

  let view : Mac_adversary.View.t =
    { n; round = 0;
      queue_size = (fun i -> station_queue i);
      queued_to =
        (fun d ->
          let total = ref 0 in
          for i = 0 to n - 1 do
            Pqueue.iter queues.(i) ~f:(fun p ->
                if p.Packet.dst = d then incr total)
          done;
          !total);
      total_queued = (fun () -> scan_total ());
      was_on = (fun i -> prev_on.(i)) }
  in

  (* Admission, the paper's way: pacing caps the desire, the bucket caps
     the admission, self-addressed proposals are dropped without cost. *)
  let desired ~round =
    match pacing with
    | Mac_adversary.Adversary.Greedy -> max_int
    | Mac_adversary.Adversary.Paced { burst_at } ->
      let steady =
        Qrat.floor (Qrat.mul_int rate (round + 1))
        - Qrat.floor (Qrat.mul_int rate round)
      in
      let extra =
        match burst_at with
        | Some b when b = round -> Qrat.floor burst
        | _ -> 0
      in
      steady + extra
  in
  let inject round =
    view.Mac_adversary.View.round <- round;
    let budget = min (Qrat.floor !tokens) (desired ~round) in
    let proposed =
      if budget <= 0 then []
      else pattern.Mac_adversary.Pattern.generate ~round ~budget ~view
    in
    let accepted = ref 0 in
    List.iteri
      (fun idx (src, dst) ->
        if idx < budget && src <> dst then begin
          if src < 0 || src >= n || dst < 0 || dst >= n then
            raise (Violation "adversary injected out-of-range station");
          incr accepted;
          let id = !next_id in
          incr next_id;
          let p = Packet.make ~id ~src ~dst ~injected_at:round in
          if src = dst then begin
            (* unreachable here, kept for symmetry with the engine *)
            incr injected;
            incr delivered;
            incr delivery_rounds;
            emit ~round (Event.Injected { id; src; dst });
            emit ~round
              (Event.Delivered { id; from_ = src; dst; delay = 0; hops = 0 })
          end
          else begin
            Pqueue.add queues.(src) p;
            flights := { packet = p; delivered = false; hops = 0 } :: !flights;
            incr injected;
            let total = scan_total () in
            if total > !max_total_queue then max_total_queue := total;
            let sq = station_queue src in
            if sq > !max_station_queue then max_station_queue := sq;
            emit ~round (Event.Injected { id; src; dst })
          end
        end)
      proposed;
    tokens := Qrat.sub !tokens (Qrat.of_int !accepted);
    tokens := Qrat.min bucket_cap (Qrat.add !tokens rate)
  in

  let step ~round ~draining =
    if not draining then inject round;
    apply_faults round;
    (* Mode decisions. *)
    let on_count = ref 0 in
    for i = 0 to n - 1 do
      on.(i) <- (not crashed.(i)) && A.on_duty states.(i) ~round ~queue:queues.(i);
      if on.(i) then incr on_count;
      if on.(i) <> prev_on.(i) then
        emit ~round
          (if on.(i) then Event.Switched_on { station = i }
           else Event.Switched_off { station = i })
    done;
    on_total := !on_total + !on_count;
    if !on_count > !max_on then max_on := !on_count;
    if !on_count > cap then begin
      incr cap_exceeded;
      emit ~round (Event.Cap_exceeded { on_count = !on_count; cap })
    end;
    (* Actions of switched-on stations, in station order. *)
    let txs = ref [] in
    for i = 0 to n - 1 do
      if on.(i) then
        match A.act states.(i) ~round ~queue:queues.(i) with
        | Action.Listen -> ()
        | Action.Transmit m ->
          (match m.Message.packet with
           | Some p ->
             if
               not
                 (List.exists
                    (fun (q : Packet.t) -> q.Packet.id = p.Packet.id)
                    (Pqueue.to_list queues.(i)))
             then
               raise
                 (Violation
                    (Printf.sprintf
                       "station %d transmitted a packet not in its queue" i))
           | None -> ());
          if A.plain_packet && not (Message.is_plain m) then
            raise
              (Violation
                 (Printf.sprintf
                    "plain-packet algorithm %s sent a non-plain message" A.name));
          txs := (i, m) :: !txs
    done;
    let txs = List.rev !txs in
    List.iter
      (fun (i, m) ->
        emit ~round
          (Event.Transmit { station = i; light = m.Message.packet = None }))
      txs;
    (* Channel resolution. *)
    let jammed = !jam_now || !noise_now in
    let feedback, heard =
      match txs with
      | [] ->
        if !noise_now then begin
          note_jammed ~round ~noise:true;
          incr collision_rounds;
          emit ~round (Event.Round_jammed { transmitters = 0; noise = true });
          emit ~round (Event.Collision { stations = [] });
          (Feedback.Collision, None)
        end
        else begin
          if !jam_now then begin
            note_jammed ~round ~noise:false;
            emit ~round (Event.Round_jammed { transmitters = 0; noise = false })
          end;
          incr silent_rounds;
          emit ~round Event.Silence;
          (Feedback.Silence, None)
        end
      | [ (s, m) ] when not jammed -> (Feedback.Heard m, Some (s, m))
      | _ ->
        if jammed then begin
          note_jammed ~round ~noise:!noise_now;
          emit ~round
            (Event.Round_jammed
               { transmitters = List.length txs; noise = !noise_now })
        end;
        incr collision_rounds;
        emit ~round (Event.Collision { stations = List.map fst txs });
        (Feedback.Collision, None)
    in
    (* The heard message, if any. *)
    let pending = ref None in
    (match heard with
     | None -> ()
     | Some (s, m) ->
       let bits = Message.control_bits m in
       control_bits_total := !control_bits_total + bits;
       if bits > !control_bits_max then control_bits_max := bits;
       emit ~round
         (Event.Heard { station = s; bits; light = m.Message.packet = None });
       (match m.Message.packet with
        | None -> incr light_rounds
        | Some p ->
          remove_from_queue s p;
          let f = find_flight p.Packet.id in
          f.hops <- f.hops + 1;
          if on.(p.Packet.dst) then begin
            if f.delivered then raise (Violation "duplicate delivery");
            f.delivered <- true;
            incr delivered;
            incr delivery_rounds;
            let delay = round - p.Packet.injected_at in
            delay_sum := !delay_sum +. float_of_int delay;
            if delay > !max_delay then max_delay := delay;
            if f.hops > !max_hops then max_hops := f.hops;
            emit ~round
              (Event.Delivered
                 { id = p.Packet.id; from_ = s; dst = p.Packet.dst; delay;
                   hops = f.hops })
          end
          else pending := Some (s, p)));
    (* Feedback and reactions. *)
    let adopters = ref [] in
    for i = 0 to n - 1 do
      if on.(i) then
        match A.observe states.(i) ~round ~queue:queues.(i) ~feedback with
        | Reaction.No_reaction -> ()
        | Reaction.Adopt_heard_packet -> adopters := i :: !adopters
    done;
    let adopters = List.rev !adopters in
    (match (!pending, adopters) with
     | None, [] -> ()
     | None, _ :: _ ->
       emit ~round (Event.Spurious_adoption { stations = adopters });
       violation
         (fun () -> incr spurious_adoptions)
         "adoption reaction with no packet pending"
     | Some (s, p), [] ->
       Pqueue.add queues.(s) p;
       emit ~round (Event.Stranded { id = p.Packet.id; station = s });
       violation
         (fun () -> incr stranded)
         (Printf.sprintf "packet %d stranded at round %d" p.Packet.id round)
     | Some (s, p), adopter :: rest ->
       if rest <> [] then begin
         emit ~round (Event.Adoption_conflict { stations = adopters });
         violation
           (fun () -> incr adoption_conflicts)
           "multiple stations adopted the same packet"
       end;
       if adopter = s then raise (Violation "transmitter adopted its own packet");
       if A.direct then
         raise
           (Violation (Printf.sprintf "direct algorithm %s used a relay" A.name));
       Pqueue.add queues.(adopter) p;
       incr relay_rounds;
       let sq = station_queue adopter in
       if sq > !max_station_queue then max_station_queue := sq;
       emit ~round
         (Event.Relayed
            { id = p.Packet.id; from_ = s; relay = adopter; dst = p.Packet.dst }));
    for i = 0 to n - 1 do
      if (not on.(i)) && not crashed.(i) then
        A.offline_tick states.(i) ~round ~queue:queues.(i)
    done;
    Array.blit on 0 prev_on 0 n;
    if draining then incr drain_rounds else incr normal_rounds;
    if !first_fault_round >= 0 then begin
      let q = scan_total () in
      if q > !post_fault_peak then post_fault_peak := q;
      if q > !pre_fault_queue then last_exceed := round
    end;
    (* First-principles conservation: every packet the oracle admitted is
       delivered, sitting in exactly one queue, or lost to a crash. *)
    if scan_total () <> !injected - !delivered - !lost then
      raise (Violation "packet conservation failed");
    emit ~round (Event.Round_end { on_count = !on_count; draining })
  in

  for round = 0 to rounds - 1 do
    step ~round ~draining:false
  done;
  let round = ref rounds in
  let drained = ref 0 in
  while !drained < drain && scan_total () > 0 do
    step ~round:!round ~draining:true;
    incr round;
    incr drained
  done;
  let final_round = !round in
  (* End-of-run checks, by scanning: no packet in two queues, no delivered
     packet still queued, and the oldest queued packet's age. *)
  let seen = ref [] in
  let max_age = ref 0 in
  Array.iter
    (fun q ->
      Pqueue.iter q ~f:(fun p ->
          if List.mem p.Packet.id !seen then
            raise (Violation "packet present in two queues");
          seen := p.Packet.id :: !seen;
          let f = find_flight p.Packet.id in
          if f.delivered then raise (Violation "delivered packet still queued");
          let age = final_round - p.Packet.injected_at in
          if age > !max_age then max_age := age))
    queues;
  let total_rounds = !normal_rounds + !drain_rounds in
  let int name v = (name, Mac_sim.Metrics.Int v) in
  let float name v = (name, Mac_sim.Metrics.Float v) in
  let digest =
    [ int "rounds" !normal_rounds;
      int "drain_rounds" !drain_rounds;
      int "injected" !injected;
      int "delivered" !delivered;
      int "undelivered" (!injected - !delivered);
      int "max_delay" !max_delay;
      float "mean_delay"
        (if !delivered = 0 then 0.0 else !delay_sum /. float_of_int !delivered);
      int "max_queued_age" !max_age;
      int "max_total_queue" !max_total_queue;
      int "final_total_queue" (scan_total ());
      int "max_station_queue" !max_station_queue;
      int "energy_cap" cap;
      int "max_on" !max_on;
      float "mean_on"
        (if total_rounds = 0 then 0.0
         else float_of_int !on_total /. float_of_int total_rounds);
      int "station_rounds" !on_total;
      int "silent_rounds" !silent_rounds;
      int "light_rounds" !light_rounds;
      int "delivery_rounds" !delivery_rounds;
      int "relay_rounds" !relay_rounds;
      int "collision_rounds" !collision_rounds;
      int "max_hops" !max_hops;
      int "control_bits_total" !control_bits_total;
      int "control_bits_max" !control_bits_max;
      int "cap_exceeded" !cap_exceeded;
      int "stranded" !stranded;
      int "adoption_conflicts" !adoption_conflicts;
      int "spurious_adoptions" !spurious_adoptions;
      int "crashes" !crashes;
      int "restarts" !restarts;
      int "jammed_rounds" !jammed_rounds;
      int "noise_rounds" !noise_rounds;
      int "lost_to_crash" !lost;
      int "last_fault_round" !last_fault_round;
      int "pre_fault_queue" (if !first_fault_round < 0 then 0 else !pre_fault_queue);
      int "post_fault_peak_queue" !post_fault_peak;
      int "recovery_rounds"
        (let final_total = scan_total () in
         if !last_fault_round >= 0 && final_total <= !pre_fault_queue then
           let back =
             if !last_exceed >= !last_fault_round then !last_exceed + 1
             else !last_fault_round
           in
           back - !last_fault_round
         else -1) ]
  in
  (digest, List.rev !events_rev)
