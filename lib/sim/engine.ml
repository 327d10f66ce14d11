open Mac_channel

exception Protocol_violation of string

let snapshot_version = 1

(* A pure-data photograph of a run at a round boundary. Everything mutable
   the round loop reads is here: queues (in arrival order, with per-packet
   hop counts), encoded algorithm states, the adversary driver (exact
   bucket level + pattern cursor), mode memory, crash flags, and a deep
   copy of the metrics collector. The identity fields up front let resume
   reject a snapshot taken under a different configuration instead of
   silently diverging. *)
type snapshot = {
  snap_version : int;
  algorithm : string;
  state_version : int;
  snap_n : int;
  snap_k : int;
  adversary_name : string;
  rate : Qrat.t;
  burst : Qrat.t;
  pacing : Mac_adversary.Adversary.pacing;
  pattern_name : string;
  plan_name : string option;
  cfg_rounds : int;
  drain_limit : int;
  sample_every : int;
  round : int;
  drained : int;
  next_id : int;
  queues : Packet.t array array;
  hops : int array array;
  states : string array;
  prev_on : bool array;
  crashed : bool array;
  adversary_state : Mac_adversary.Adversary.driver_state;
  metrics : Metrics.t;
}

let snapshot_round s = s.round
let snapshot_drained s = s.drained
let snapshot_algorithm s = s.algorithm
let snapshot_n s = s.snap_n
let snapshot_k s = s.snap_k
let snapshot_rounds s = s.cfg_rounds

(* Execution mode. [Dense] is the classical engine: every station visited
   every round. [Sparse] demands the algorithm's closed-form schedule
   ([Algorithm.S.sparse]) and fails if absent: provably-silent stretches
   are skipped analytically, and concrete rounds touch only scheduled or
   previously-on stations unless the hook says stations keep bookkeeping
   while off ([ticks_offline]), in which case they visit every station as
   dense rounds do. [Auto] uses sparse when the algorithm supports it and
   falls back to dense otherwise. Sparse and dense runs of
   the same configuration are bit-identical (events, summaries, snapshot
   bytes) — the verify layer certifies this differentially. *)
type mode = Dense | Sparse | Auto

type config = {
  rounds : int;
  drain_limit : int;
  sample_every : int;
  check_schedule : bool;
  strict : bool;
  sink : Sink.t option;
  faults : Mac_faults.Fault_plan.t option;
  checkpoint_every : int;
  on_checkpoint : (snapshot -> unit) option;
  telemetry : Telemetry.probe option;
  (* Called once per simulated round. The Supervisor's watchdog uses it
     as a liveness signal and cancellation point; [None] (the default)
     keeps the round loop on its allocation-free fast path. In sparse
     mode an analytic skip beats once per skipped stretch, not once per
     round. *)
  heartbeat : (unit -> unit) option;
  mode : mode;
}

let default_config ~rounds =
  { rounds; drain_limit = 0; sample_every = 0; check_schedule = false;
    strict = true; sink = None; faults = None;
    checkpoint_every = 0; on_checkpoint = None; telemetry = None;
    heartbeat = None; mode = Dense }

type tracked = {
  packet : Packet.t;
  mutable delivered : bool;
  mutable hops : int;
}

(* Live-telemetry state for one run: the registry handles, resolved once
   at run start, plus the previous-sample cursors (time, round, energy,
   GC) that turn running totals into window rates. Engine-private. *)
let phase_names = [| "inject"; "faults"; "resolve"; "deliver"; "observe" |]

type live_telemetry = {
  lt_probe : Telemetry.probe;
  lt_round : Telemetry.gauge;
  lt_target : Telemetry.gauge;
  lt_rps : Telemetry.gauge;
  lt_backlog : Telemetry.gauge;
  lt_backlog_peak : Telemetry.gauge;
  lt_queue_peak : Telemetry.gauge;
  lt_tokens : Telemetry.gauge;
  lt_crashed : Telemetry.gauge;
  lt_energy_window : Telemetry.gauge;
  lt_energy_total : Telemetry.counter;
  lt_injected : Telemetry.counter;
  lt_delivered : Telemetry.counter;
  lt_collisions : Telemetry.counter;
  lt_jams : Telemetry.counter;
  lt_lost : Telemetry.counter;
  lt_checkpoints : Telemetry.counter;
  lt_samples : Telemetry.counter;
  lt_gc_minor_rate : Telemetry.gauge;
  lt_gc_heap : Telemetry.gauge;
  lt_gc_majors : Telemetry.counter;
  lt_phase : Histogram.t array; (* indexed like [phase_names] *)
  mutable lt_last_time : float;
  mutable lt_last_round : int;
  mutable lt_last_energy : int;
  mutable lt_last_minor : float;
}

let attach_telemetry (p : Telemetry.probe) ~target ~(metrics : Metrics.t) =
  let reg = p.Telemetry.registry in
  let g ?merge ~help name = Telemetry.gauge reg ~help ?merge name in
  let c ~help name = Telemetry.counter reg ~help name in
  let lt =
    { lt_probe = p;
      lt_round =
        g ~merge:Telemetry.Max ~help:"Rounds executed so far."
          Telemetry.Names.round;
      lt_target =
        g ~help:"Configured rounds plus drain limit."
          Telemetry.Names.rounds_target;
      lt_rps =
        g ~help:"Rounds per second since the previous sample."
          Telemetry.Names.rounds_per_second;
      lt_backlog = g ~help:"Packets queued now." Telemetry.Names.backlog;
      lt_backlog_peak =
        g ~merge:Telemetry.Max ~help:"Peak total backlog."
          Telemetry.Names.backlog_peak;
      lt_queue_peak =
        g ~merge:Telemetry.Max ~help:"Peak single-station queue."
          Telemetry.Names.station_queue_peak;
      lt_tokens =
        g ~help:"Adversary leaky-bucket level." Telemetry.Names.bucket_tokens;
      lt_crashed =
        g ~help:"Stations currently crashed." Telemetry.Names.crashed_stations;
      lt_energy_window =
        g ~help:"Station-rounds spent since the previous sample."
          Telemetry.Names.energy_window;
      lt_energy_total =
        c ~help:"Station-rounds spent so far." Telemetry.Names.energy_total;
      lt_injected = c ~help:"Packets injected." Telemetry.Names.injected_total;
      lt_delivered =
        c ~help:"Packets delivered." Telemetry.Names.delivered_total;
      lt_collisions =
        c ~help:"Collision rounds." Telemetry.Names.collisions_total;
      lt_jams = c ~help:"Jammed rounds." Telemetry.Names.jams_total;
      lt_lost = c ~help:"Packets lost to crashes." Telemetry.Names.lost_total;
      lt_checkpoints =
        c ~help:"Checkpoints written." Telemetry.Names.checkpoints_total;
      lt_samples =
        c ~help:"Telemetry samples taken." Telemetry.Names.samples_total;
      lt_gc_minor_rate =
        g ~help:"Minor-heap words allocated per round since the previous sample."
          Telemetry.Names.gc_minor_words_per_round;
      lt_gc_heap =
        g ~merge:Telemetry.Max ~help:"Major-heap words."
          Telemetry.Names.gc_heap_words;
      lt_gc_majors =
        c ~help:"Major collections." Telemetry.Names.gc_major_collections_total;
      lt_phase =
        Array.map
          (fun ph ->
            Telemetry.histogram reg
              ~help:
                "Wall-clock nanoseconds per engine phase of sampled rounds."
              ~labels:[ ("phase", ph) ] Telemetry.Names.phase_ns)
          phase_names;
      lt_last_time = Unix.gettimeofday ();
      lt_last_round = 0;
      lt_last_energy = (Metrics.live_stats metrics).Metrics.live_station_rounds;
      lt_last_minor = Gc.minor_words () }
  in
  ignore
    (Telemetry.register_histogram reg ~help:"Delivery delay in rounds."
       Telemetry.Names.delay
       (Metrics.live_delay_histogram metrics));
  Telemetry.set_gauge lt.lt_target (float_of_int target);
  lt

let violation ~strict metrics note msg =
  note metrics;
  if strict then raise (Protocol_violation msg)

(* The state of one run, between rounds or between the phases of one.
   [start] builds it; the phase functions below advance it in place; a
   session wraps it with the algorithm's state type hidden. The round
   loop reads everything mutable from here, so a round allocates no
   closure. *)
type 'st run = {
  algo : (module Algorithm.S with type state = 'st);
  cfg : config;
  n : int;
  k : int;
  cap : int;
  plan : Mac_faults.Fault_plan.t option;  (* [None] when absent or empty *)
  sample_every : int;
  metrics : Metrics.t;
  queues : Pqueue.t array;
  states : 'st array;
  registry : tracked Int_table.t;
  driver : Mac_adversary.Adversary.driver;
  view : Mac_adversary.View.t;
  mutable next_id : int;
  mutable round : int;  (* the round executing, or the next one between rounds *)
  mutable drained : int;
  (* Mode memory. [on_list] holds this round's switched-on stations in
     ascending order (its first [on_len] slots); [prev_list] holds last
     round's, and between rounds [on] and [prev_on] are true exactly on
     it. Both lists are preallocated to [n], so building them allocates
     nothing. *)
  on : bool array;
  prev_on : bool array;
  on_list : int array;
  mutable on_len : int;
  prev_list : int array;
  mutable prev_len : int;
  (* Scratch space for the channel: at most n transmissions per round,
     recorded into preallocated arrays instead of a consed-up list. The
     message slots hold stale messages between rounds; [tx_count] is the
     only truth about what is live. *)
  tx_station : int array;
  tx_message : Message.t array;
  mutable tx_count : int;
  mutable feedback : Feedback.t;
  mutable adopters : int list;  (* this round's adopters, most recent first *)
  (* Fault injection. An absent or empty plan keeps every code path
     identical to the fault-free engine: [crashed] stays all-false, the
     jam flags stay unset, and [faults] applies nothing — so a run with
     [faults = None] is bit-identical (metrics and event stream) to one
     predating the fault layer. *)
  crashed : bool array;
  mutable crashed_count : int;
  mutable jam_now : bool;
  mutable noise_now : bool;
  (* Sparse execution. [sparse = Some _] arms the analytic skip-ahead;
     unless the hook ticks stations offline it also makes the mode
     decision visit only stations scheduled on this round or on last
     round. Supporting state:
     - [nonempty]: the stations currently holding packets (maintained at
       every queue mutation), each asked for its [next_transmission]: the
       first [nonempty_len] slots, in no particular order, with
       [nonempty_at.(i)] station [i]'s slot or -1 — a set that adds,
       removes and walks without allocating (empty arrays in dense
       mode);
     - [na_cache]: memoised next-possible-transmission round, the minimum
       of those answers. -1 = unknown, [max_int] = never, else an
       under-estimate that stays valid through silent rounds, concrete or
       skipped (they move station state exactly as the answers assumed):
       packet arrivals relax it in place by asking only the station that
       changed; removals invalidate it (a removal can only push the true
       round later, so the stale value would merely cost a concrete round
       — but it is cheap to recompute and keeps reasoning simple), and so
       does a restart, which replaces a station's state;
     - [adm_cache]: memoised [Adversary.next_admission]. The prediction
       is deterministic through quiet rounds (the bucket refills on
       schedule), so it stays exact until packets are actually admitted;
       [inject] clears it then. A stale value (< current round: the
       pattern declined its budget) falls through the [>= round] validity
       check and is recomputed. *)
  sparse : 'st Algorithm.sparse option;
  nonempty : int array;
  nonempty_at : int array;
  mutable nonempty_len : int;
  mutable na_cache : int;
  mutable adm_cache : int;
  (* Observation. With no sink installed, every event is a single
     [observing] branch — no allocation, no formatting — so un-observed
     runs keep their Table-1 numbers. With [cfg.telemetry = None] the
     telemetry hooks are false branches: no clock reads, no allocation.
     With a probe, only the round preceding each sample is phase-timed,
     so the overhead is bounded by the cadence, not the round count. *)
  observing : bool;
  lt : live_telemetry option;
  tel_every : int;
  mutable timing : bool;
  mutable obs_acc : float;  (* sink time of the timed round *)
  clocks : float array;  (* phase-boundary readings, unboxed *)
  mutable last_sample : int;
  mutable finished : bool;
}

type session = Session : 'st run -> session

let draining r = r.round >= r.cfg.rounds

let clock r i = if r.timing then r.clocks.(i) <- Unix.gettimeofday ()

(* Hand one event of the current round to the sink; callers test
   [observing] first so that unobserved runs build no event. On a timed
   round the time spent here is the observe phase. *)
let emit r ev =
  match r.cfg.sink with
  | None -> ()
  | Some s ->
    if r.timing then begin
      let t0 = Unix.gettimeofday () in
      s.Sink.emit ~round:r.round ev;
      r.obs_acc <- r.obs_acc +. (Unix.gettimeofday () -. t0)
    end
    else s.Sink.emit ~round:r.round ev

(* Sparse bookkeeping on queue mutations. *)
let note_queue_add r i =
  match r.sparse with
  | None -> ()
  | Some sp ->
    if r.nonempty_at.(i) < 0 then begin
      r.nonempty_at.(i) <- r.nonempty_len;
      r.nonempty.(r.nonempty_len) <- i;
      r.nonempty_len <- r.nonempty_len + 1
    end;
    if r.na_cache >= r.round then begin
      let v =
        sp.Algorithm.next_transmission r.states.(i) ~round:r.round
          ~queue:r.queues.(i)
      in
      if v < r.na_cache then r.na_cache <- v
    end

let note_queue_removed r i =
  match r.sparse with
  | None -> ()
  | Some _ ->
    if Pqueue.is_empty r.queues.(i) && r.nonempty_at.(i) >= 0 then begin
      let slot = r.nonempty_at.(i) and last = r.nonempty.(r.nonempty_len - 1) in
      r.nonempty.(slot) <- last;
      r.nonempty_at.(last) <- slot;
      r.nonempty_at.(i) <- -1;
      r.nonempty_len <- r.nonempty_len - 1
    end;
    r.na_cache <- -1

(* Make the first [len] of [stations] (ascending) the on-set of the round
   just finished. The round's own bookkeeping, the landing of a skip and
   a resume all go through here, so [prev_list] always matches
   [prev_on]. *)
let set_prev_on r stations len =
  for j = 0 to r.prev_len - 1 do
    let i = r.prev_list.(j) in
    r.on.(i) <- false;
    r.prev_on.(i) <- false
  done;
  for j = 0 to len - 1 do
    let i = stations.(j) in
    r.on.(i) <- true;
    r.prev_on.(i) <- true;
    r.prev_list.(j) <- i
  done;
  r.prev_len <- len

(* ---- phase 1: inject ---------------------------------------------- *)

let inject_pair r (src, dst) =
  let n = r.n in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    raise (Protocol_violation "adversary injected out-of-range station");
  let id = r.next_id in
  r.next_id <- id + 1;
  if src = dst then begin
    (* Self-addressed packets need no channel use; delivered at
       injection (see DESIGN.md interpretation 5). Patterns never
       produce these; kept for external users of the engine. They
       never enter a queue, so they must not touch the queue peaks. *)
    Metrics.note_self_injection r.metrics;
    if r.observing then begin
      emit r (Event.Injected { id; src; dst });
      emit r (Event.Delivered { id; from_ = src; dst; delay = 0; hops = 0 })
    end
  end
  else begin
    let p = Packet.make ~id ~src ~dst ~injected_at:r.round in
    Pqueue.add r.queues.(src) p;
    note_queue_add r src;
    Int_table.replace r.registry id { packet = p; delivered = false; hops = 0 };
    Metrics.note_injection r.metrics;
    Metrics.note_station_queue r.metrics (Pqueue.size r.queues.(src));
    if r.observing then emit r (Event.Injected { id; src; dst })
  end

let rec inject_all r = function
  | [] -> ()
  | pair :: rest ->
    inject_pair r pair;
    inject_all r rest

(* The adversary's admissions; nothing while draining. *)
let inject r =
  if not (draining r) then begin
    r.view.Mac_adversary.View.round <- r.round;
    match Mac_adversary.Adversary.inject r.driver ~view:r.view with
    | [] -> ()
    | pairs ->
      r.adm_cache <- -1;
      inject_all r pairs
  end

(* ---- phase 2: faults ---------------------------------------------- *)

(* Applied at the top of the round, after injection and before mode
   decisions: a crash this round already silences the station's mode
   decision; a restart rejoins from this round's decision on. Jam and
   noise only raise flags here — they act at channel resolution. *)
let apply_fault (type st) (r : st run) (a : Mac_faults.Fault_plan.action) =
  let module A = (val r.algo) in
  let round = r.round and n = r.n in
  match a with
  | Crash { station = i; queue = policy } ->
    if i < 0 || i >= n then
      raise
        (Protocol_violation
           (Printf.sprintf "fault plan crashes station %d (n = %d)" i n));
    if not r.crashed.(i) then begin
      r.crashed.(i) <- true;
      r.crashed_count <- r.crashed_count + 1;
      let lost =
        match policy with
        | Mac_faults.Fault_plan.Retain -> 0
        | Mac_faults.Fault_plan.Drop ->
          let lost =
            List.fold_left
              (fun lost (p : Packet.t) ->
                Int_table.remove r.registry p.Packet.id;
                lost + 1)
              0
              (Pqueue.drain r.queues.(i))
          in
          note_queue_removed r i;
          lost
      in
      Metrics.note_crash r.metrics ~round ~lost;
      if r.observing then emit r (Event.Station_crashed { station = i; lost })
    end
  | Restart { station = i } ->
    if i < 0 || i >= n then
      raise
        (Protocol_violation
           (Printf.sprintf "fault plan restarts station %d (n = %d)" i n));
    if r.crashed.(i) then begin
      r.crashed.(i) <- false;
      r.crashed_count <- r.crashed_count - 1;
      r.states.(i) <- A.create ~n ~k:r.k ~me:i;
      r.na_cache <- -1;
      Metrics.note_restart r.metrics ~round;
      if r.observing then emit r (Event.Station_restarted { station = i })
    end
  | Jam -> r.jam_now <- true
  | Noise -> r.noise_now <- true

let faults r =
  match r.plan with
  | None -> ()
  | Some p ->
    r.jam_now <- false;
    r.noise_now <- false;
    List.iter (apply_fault r) (Mac_faults.Fault_plan.actions p ~round:r.round)

(* ---- phase 3: resolve --------------------------------------------- *)

(* The per-station body of the mode decision, shared by both modes:
   record the decision, append the station to the on-list, report a mode
   edge, and check the declared static schedule. *)
let switch (type st) (r : st run) i on_i =
  let module A = (val r.algo) in
  r.on.(i) <- on_i;
  if on_i then begin
    r.on_list.(r.on_len) <- i;
    r.on_len <- r.on_len + 1
  end;
  if r.observing && on_i <> r.prev_on.(i) then
    emit r
      (if on_i then Event.Switched_on { station = i }
       else Event.Switched_off { station = i });
  if r.cfg.check_schedule && not r.crashed.(i) then
    match A.static_schedule with
    | Some schedule when on_i <> schedule ~n:r.n ~k:r.k ~me:i ~round:r.round ->
      raise
        (Protocol_violation
           (Printf.sprintf
              "station %d round %d: on_duty disagrees with static schedule" i
              r.round))
    | _ -> ()

(* Mode decisions. Crashed stations are inert: forced off, their on_duty
   never called (state frozen for a later restart), and the
   static-schedule check waived — the schedule says on, the fault says
   otherwise. *)
let decide (type st) (r : st run) =
  let module A = (val r.algo) in
  let round = r.round in
  r.on_len <- 0;
  match r.sparse with
  | None | Some { Algorithm.ticks_offline = true; _ } ->
    for i = 0 to r.n - 1 do
      switch r i
        ((not r.crashed.(i)) && A.on_duty r.states.(i) ~round ~queue:r.queues.(i))
    done
  | Some sp ->
    (* Ascending merge over prev_list ∪ on_set(round). Every station
       outside the union has [on] and [prev_on] false (engine invariant),
       emits no Switched event, and — by the contract of a hook that does
       not tick offline — neither acts, observes, nor ticks, so visiting
       only the union reproduces the dense round exactly. Station order
       (and hence event order) stays ascending. *)
    let cur = sp.Algorithm.on_set ~round in
    let pl = r.prev_list in
    let np = r.prev_len and nc = Array.length cur in
    let ia = ref 0 and ib = ref 0 in
    while !ia < np || !ib < nc do
      let i =
        if !ia >= np then cur.(!ib)
        else if !ib >= nc then pl.(!ia)
        else min pl.(!ia) cur.(!ib)
      in
      let in_cur = !ib < nc && cur.(!ib) = i in
      if !ia < np && pl.(!ia) = i then incr ia;
      if in_cur then incr ib;
      (* Only union members are checked (rounds the skip-ahead removes
         are silent by construction): on_duty must match the sparse
         on-set here, and [switch] checks the on-set against the
         declared static schedule. *)
      if
        r.cfg.check_schedule
        && (not r.crashed.(i))
        && A.on_duty r.states.(i) ~round ~queue:r.queues.(i) <> in_cur
      then
        raise
          (Protocol_violation
             (Printf.sprintf
                "station %d round %d: on_duty disagrees with sparse on_set" i
                round));
      switch r i (in_cur && not r.crashed.(i))
    done

(* A switched-on station's action, recorded into the scratch arrays. *)
let act (type st) (r : st run) i =
  let module A = (val r.algo) in
  match A.act r.states.(i) ~round:r.round ~queue:r.queues.(i) with
  | Action.Listen -> ()
  | Action.Transmit m ->
    (match m.Message.packet with
     | Some p ->
       if not (Pqueue.mem r.queues.(i) p) then
         raise
           (Protocol_violation
              (Printf.sprintf "station %d transmitted a packet not in its queue" i))
     | None -> ());
    if A.plain_packet && not (Message.is_plain m) then
      raise
        (Protocol_violation
           (Printf.sprintf "plain-packet algorithm %s sent a non-plain message"
              A.name));
    r.tx_station.(r.tx_count) <- i;
    r.tx_message.(r.tx_count) <- m;
    r.tx_count <- r.tx_count + 1

(* Channel resolution. A jam forces any round with at least one
   transmitter to read as a collision; noise forces a collision even on
   an empty channel. The Round_jammed event (and its metrics note) lands
   immediately before the resolution it affects, so replaying a recorded
   stream books both at the same point the live run did. A jam of a
   zero-transmitter round leaves the channel silent but is still counted
   — the fault fired, whether or not anyone was talking. Colliding-station
   lists exist only in events, so they are built only when a sink is
   observing. A round is heard when exactly one station transmitted and
   no fault interfered; its transmitter and message are then the first
   scratch slot. *)
let outcome r =
  let round = r.round and metrics = r.metrics in
  let jammed = r.jam_now || r.noise_now in
  if r.tx_count = 0 then
    if r.noise_now then begin
      Metrics.note_jammed metrics ~round ~noise:true;
      Metrics.note_collision metrics;
      if r.observing then begin
        emit r (Event.Round_jammed { transmitters = 0; noise = true });
        emit r (Event.Collision { stations = [] })
      end;
      Feedback.Collision
    end
    else begin
      if r.jam_now then begin
        Metrics.note_jammed metrics ~round ~noise:false;
        if r.observing then
          emit r (Event.Round_jammed { transmitters = 0; noise = false })
      end;
      Metrics.note_silence metrics;
      if r.observing then emit r Event.Silence;
      Feedback.Silence
    end
  else if r.tx_count = 1 && not jammed then Feedback.Heard r.tx_message.(0)
  else begin
    if jammed then begin
      Metrics.note_jammed metrics ~round ~noise:r.noise_now;
      if r.observing then
        emit r
          (Event.Round_jammed { transmitters = r.tx_count; noise = r.noise_now })
    end;
    Metrics.note_collision metrics;
    if r.observing then
      emit r
        (Event.Collision
           { stations = List.init r.tx_count (fun j -> r.tx_station.(j)) });
    Feedback.Collision
  end

(* Mode decisions, the energy charge, the switched-on stations' actions
   and the channel's outcome. *)
let resolve r =
  decide r;
  Metrics.note_on_count r.metrics r.on_len;
  if r.observing && r.on_len > r.cap then
    emit r (Event.Cap_exceeded { on_count = r.on_len; cap = r.cap });
  r.tx_count <- 0;
  for j = 0 to r.on_len - 1 do
    act r r.on_list.(j)
  done;
  if r.observing then
    for j = 0 to r.tx_count - 1 do
      emit r
        (Event.Transmit
           { station = r.tx_station.(j);
             light = r.tx_message.(j).Message.packet = None })
    done;
  r.feedback <- outcome r

(* ---- phase 4: deliver --------------------------------------------- *)

(* A heard packet leaves the transmitter; it is delivered if its
   destination is on, otherwise it awaits adoption (the result). *)
let hear r =
  match r.feedback with
  | Feedback.Silence | Feedback.Collision -> None
  | Feedback.Heard m ->
    let round = r.round and s = r.tx_station.(0) in
    let bits = Message.control_bits m in
    Metrics.note_control_bits r.metrics bits;
    if r.observing then
      emit r (Event.Heard { station = s; bits; light = m.Message.packet = None });
    (match m.Message.packet with
     | None ->
       Metrics.note_light r.metrics;
       None
     | Some p ->
       let removed = Pqueue.remove r.queues.(s) p in
       assert removed;
       note_queue_removed r s;
       let tracked = Int_table.find r.registry p.Packet.id in
       tracked.hops <- tracked.hops + 1;
       if r.on.(p.Packet.dst) then begin
         if tracked.delivered then raise (Protocol_violation "duplicate delivery");
         tracked.delivered <- true;
         Int_table.remove r.registry p.Packet.id;
         Metrics.note_delivery r.metrics
           ~delay:(round - p.Packet.injected_at) ~hops:tracked.hops;
         if r.observing then
           emit r
             (Event.Delivered
                { id = p.Packet.id; from_ = s; dst = p.Packet.dst;
                  delay = round - p.Packet.injected_at; hops = tracked.hops });
         None
       end
       else m.Message.packet)

let react (type st) (r : st run) i =
  let module A = (val r.algo) in
  match
    A.observe r.states.(i) ~round:r.round ~queue:r.queues.(i)
      ~feedback:r.feedback
  with
  | Reaction.No_reaction -> ()
  | Reaction.Adopt_heard_packet -> r.adopters <- i :: r.adopters

let adopt (type st) (r : st run) pending =
  let module A = (val r.algo) in
  let round = r.round and strict = r.cfg.strict and metrics = r.metrics in
  let adopters = List.rev r.adopters in
  match (pending, adopters) with
  | None, [] -> ()
  | None, _ :: _ ->
    if r.observing then emit r (Event.Spurious_adoption { stations = adopters });
    violation ~strict metrics Metrics.note_spurious_adoption
      "adoption reaction with no packet pending"
  | Some p, [] ->
    (* Nobody took the packet: return it to the transmitter. *)
    let s = r.tx_station.(0) in
    Pqueue.add r.queues.(s) p;
    note_queue_add r s;
    if r.observing then
      emit r (Event.Stranded { id = p.Packet.id; station = s });
    violation ~strict metrics Metrics.note_stranded
      (Printf.sprintf "packet %d stranded at round %d" p.Packet.id round)
  | Some p, adopter :: rest ->
    let s = r.tx_station.(0) in
    if rest <> [] then begin
      if r.observing then
        emit r (Event.Adoption_conflict { stations = adopters });
      violation ~strict metrics Metrics.note_adoption_conflict
        "multiple stations adopted the same packet"
    end;
    if adopter = s then
      raise (Protocol_violation "transmitter adopted its own packet");
    if A.direct then
      raise
        (Protocol_violation
           (Printf.sprintf "direct algorithm %s used a relay" A.name));
    Pqueue.add r.queues.(adopter) p;
    note_queue_add r adopter;
    Metrics.note_relay metrics;
    Metrics.note_station_queue metrics (Pqueue.size r.queues.(adopter));
    if r.observing then
      emit r
        (Event.Relayed
           { id = p.Packet.id; from_ = s; relay = adopter; dst = p.Packet.dst })

(* Delivery, the switched-on stations' reactions, adoption, the offline
   ticks and the end of the round. *)
let deliver (type st) (r : st run) =
  let module A = (val r.algo) in
  let pending = hear r in
  r.adopters <- [];
  for j = 0 to r.on_len - 1 do
    react r r.on_list.(j)
  done;
  adopt r pending;
  (* Switched-off stations tick; crashed stations are frozen, not off. A
     sparse hook that does not tick offline declares offline_tick an
     unconditional no-op, so that path has no such loop. *)
  (match r.sparse with
   | Some { Algorithm.ticks_offline = false; _ } -> ()
   | None | Some _ ->
     for i = 0 to r.n - 1 do
       if (not r.on.(i)) && not r.crashed.(i) then
         A.offline_tick r.states.(i) ~round:r.round ~queue:r.queues.(i)
     done);
  set_prev_on r r.on_list r.on_len;
  let draining = draining r in
  Metrics.end_round r.metrics ~round:r.round ~draining;
  if r.observing then
    emit r (Event.Round_end { on_count = r.on_len; draining })

(* ---- the round ---------------------------------------------------- *)

let record_phases r =
  match r.lt with
  | Some l ->
    clock r 4;
    for ph = 0 to 3 do
      Histogram.record l.lt_phase.(ph)
        (int_of_float ((r.clocks.(ph + 1) -. r.clocks.(ph)) *. 1e9))
    done;
    Histogram.record l.lt_phase.(4) (int_of_float (r.obs_acc *. 1e9))
  | None -> ()

(* One concrete round: the phases, with the clock read between them on
   the round preceding each telemetry sample. *)
let step r =
  if r.tel_every > 0 then begin
    r.timing <- (r.round + 1) mod r.tel_every = 0;
    if r.timing then r.obs_acc <- 0.0
  end;
  clock r 0;
  inject r;
  clock r 1;
  faults r;
  clock r 2;
  resolve r;
  clock r 3;
  deliver r;
  if r.timing then record_phases r;
  if draining r then r.drained <- r.drained + 1;
  r.round <- r.round + 1

(* The least [next_transmission] over the stations holding packets. No
   answer is below the current round, so the walk stops asking once one
   reaches it, and it asks the last concrete round's first transmitter
   first: a token holder working through its packets sends again at once,
   and then one question settles the bound. *)
let ask r (sp : _ Algorithm.sparse) i =
  sp.Algorithm.next_transmission r.states.(i) ~round:r.round ~queue:r.queues.(i)

let next_transmission r sp =
  let sender = r.tx_station.(0) in
  let asked = r.tx_count > 0 && r.nonempty_at.(sender) >= 0 in
  let best = ref (if asked then ask r sp sender else max_int) and j = ref 0 in
  while !best > r.round && !j < r.nonempty_len do
    let i = r.nonempty.(!j) in
    if not (asked && i = sender) then best := Int.min !best (ask r sp i);
    incr j
  done;
  !best

(* Analytic skip-ahead: advance [round] past a stretch of rounds that
   provably does nothing, in O(1) plus closed-form metric updates, and
   return true; return false when the current round must run concretely.
   A round is skippable when nothing can happen in it:
   - the adversary admits nothing (before [next_admission]; during the
     drain phase it never injects at all);
   - no fault action fires (before the plan's [next_action_round]);
   - no station can transmit (before the least [next_transmission] of
     the stations holding packets);
   - no station is crashed (a crashed station could make the concrete
     on-count differ from the closed-form [on_count_in]);
   - no sink is observing (observed runs need their per-round events —
     sparse iteration still applies, the skip does not).
   The skip also stops at the next checkpoint boundary and at the round
   preceding each telemetry sample (that round is phase-timed), so
   cadenced side effects fire exactly as in a dense run. Landing state
   is reconstructed in closed form: bucket via [skip_rounds], metrics
   via [skip_quiet], [prev_on]/[prev_list] as the on-set of the last
   skipped round, and station state through the hook's fast-forward,
   when it has one (a hook without one declares that silence leaves
   station state unchanged, so a skip then does no per-station work). *)
let try_skip r =
  match r.sparse with
  | None -> false
  | Some _ when r.observing || r.crashed_count > 0 -> false
  | Some sp ->
    let cfg = r.cfg and round = r.round and draining = draining r in
    let bound =
      if draining then round + (cfg.drain_limit - r.drained)
      else begin
        if r.adm_cache < round then
          r.adm_cache <- Mac_adversary.Adversary.next_admission r.driver ~round;
        Int.min cfg.rounds r.adm_cache
      end
    in
    let bound =
      match r.plan with
      | None -> bound
      | Some p ->
        (match Mac_faults.Fault_plan.next_action_round p ~round with
         | Some fr -> Int.min bound fr
         | None -> bound)
    in
    (* Only the transmission bound costs a walk over stations: skip it
       when an earlier bound already rules the stretch out. *)
    if bound > round && r.na_cache < round then
      r.na_cache <- next_transmission r sp;
    let bound = Int.min bound r.na_cache in
    let bound =
      if cfg.checkpoint_every > 0 && Option.is_some cfg.on_checkpoint then
        Int.min bound
          (((round / cfg.checkpoint_every) + 1) * cfg.checkpoint_every)
      else bound
    in
    let bound =
      if r.tel_every > 0 then
        Int.min bound (((round + r.tel_every) / r.tel_every * r.tel_every) - 1)
      else bound
    in
    let count = bound - round in
    if count <= 0 then false
    else begin
      let on_sum, on_max, exceeding =
        sp.Algorithm.on_count_in ~from:round ~until:bound ~cap:r.cap
      in
      Metrics.skip_quiet r.metrics ~from_round:round ~count ~on_sum ~on_max
        ~cap_exceeded_rounds:exceeding ~draining;
      if not draining then
        Mac_adversary.Adversary.skip_rounds r.driver ~rounds:count;
      let last = sp.Algorithm.on_set ~round:(bound - 1) in
      set_prev_on r last (Array.length last);
      (match sp.Algorithm.fast_forward with
       | None -> ()
       | Some ff -> ff r.states ~queues:r.queues ~from:round ~until:bound);
      r.round <- bound;
      if draining then r.drained <- r.drained + count;
      true
    end

(* ---- between rounds ----------------------------------------------- *)

(* Snapshots are taken between rounds: [r.round] is the next one to
   execute and everything per-round (scratch arrays, jam flags, the view)
   is recomputed by the phases, so nothing transient escapes. Building a
   snapshot reads but never writes engine state — a checkpointed run is
   bit-identical to an unobserved one. *)
let snapshot (type st) (r : st run) =
  let module A = (val r.algo) in
  let adversary = Mac_adversary.Adversary.spec r.driver in
  { snap_version = snapshot_version;
    algorithm = A.name;
    state_version = A.state_version;
    snap_n = r.n;
    snap_k = r.k;
    adversary_name = adversary.Mac_adversary.Adversary.name;
    rate = adversary.Mac_adversary.Adversary.rate;
    burst = adversary.Mac_adversary.Adversary.burst;
    pacing = adversary.Mac_adversary.Adversary.pacing;
    pattern_name =
      adversary.Mac_adversary.Adversary.pattern.Mac_adversary.Pattern.name;
    plan_name = Option.map Mac_faults.Fault_plan.name r.plan;
    cfg_rounds = r.cfg.rounds;
    drain_limit = r.cfg.drain_limit;
    sample_every = r.sample_every;
    round = r.round;
    drained = r.drained;
    next_id = r.next_id;
    queues = Array.map (fun q -> Array.of_list (Pqueue.to_list q)) r.queues;
    hops =
      Array.map
        (fun q ->
          let hs = Array.make (Pqueue.size q) 0 in
          let j = ref 0 in
          Pqueue.iter q ~f:(fun p ->
              hs.(!j) <- (Int_table.find r.registry p.Packet.id).hops;
              incr j);
          hs)
        r.queues;
    states = Array.map A.encode_state r.states;
    prev_on = Array.copy r.prev_on;
    crashed = Array.copy r.crashed;
    adversary_state = Mac_adversary.Adversary.save_driver r.driver;
    metrics = Metrics.copy r.metrics }

let checkpoint r =
  match r.cfg.on_checkpoint with
  | Some f when r.cfg.checkpoint_every > 0 && r.round mod r.cfg.checkpoint_every = 0
    ->
    f (snapshot r);
    (match r.lt with Some l -> Telemetry.inc l.lt_checkpoints | None -> ())
  | _ -> ()

(* One telemetry sample: refresh every gauge/counter from the live
   collector and engine state, then hand the registry to the sink (as a
   typed event) and the probe's [on_sample] hook. Reads only. *)
let tel_sample r (l : live_telemetry) =
  let round = r.round in
  let now = Unix.gettimeofday () in
  let live = Metrics.live_stats r.metrics in
  Telemetry.set_gauge l.lt_round (float_of_int round);
  let dr = round - l.lt_last_round in
  let dt = now -. l.lt_last_time in
  if dr > 0 && dt > 0.0 then Telemetry.set_gauge l.lt_rps (float_of_int dr /. dt);
  Telemetry.set_gauge l.lt_backlog (float_of_int live.Metrics.live_total_queued);
  Telemetry.set_gauge l.lt_backlog_peak
    (float_of_int live.Metrics.live_max_total_queue);
  Telemetry.set_gauge l.lt_queue_peak
    (float_of_int live.Metrics.live_max_station_queue);
  Telemetry.set_gauge l.lt_tokens
    (Qrat.to_float (Mac_adversary.Adversary.tokens r.driver));
  Telemetry.set_gauge l.lt_crashed (float_of_int r.crashed_count);
  Telemetry.set_gauge l.lt_energy_window
    (float_of_int (live.Metrics.live_station_rounds - l.lt_last_energy));
  Telemetry.set_counter l.lt_energy_total live.Metrics.live_station_rounds;
  Telemetry.set_counter l.lt_injected live.Metrics.live_injected;
  Telemetry.set_counter l.lt_delivered live.Metrics.live_delivered;
  Telemetry.set_counter l.lt_collisions live.Metrics.live_collision_rounds;
  Telemetry.set_counter l.lt_jams live.Metrics.live_jammed_rounds;
  Telemetry.set_counter l.lt_lost live.Metrics.live_lost;
  Telemetry.inc l.lt_samples;
  (* [quick_stat]'s minor words advance only at a minor collection;
     [Gc.minor_words] is exact, as is the cursor it started from. *)
  let st = Gc.quick_stat () in
  let minor = Gc.minor_words () in
  if dr > 0 then
    Telemetry.set_gauge l.lt_gc_minor_rate
      ((minor -. l.lt_last_minor) /. float_of_int dr);
  Telemetry.set_gauge l.lt_gc_heap (float_of_int st.Gc.heap_words);
  Telemetry.set_counter l.lt_gc_majors st.Gc.major_collections;
  l.lt_last_time <- now;
  l.lt_last_round <- round;
  l.lt_last_energy <- live.Metrics.live_station_rounds;
  l.lt_last_minor <- minor;
  if r.observing then
    emit r
      (Event.Telemetry
         { sample = Telemetry.sample l.lt_probe.Telemetry.registry });
  l.lt_probe.Telemetry.on_sample ~round l.lt_probe.Telemetry.registry

(* Telemetry samples land at round boundaries divisible by the cadence
   (mirroring checkpoints), plus one final sample so the exposition
   always reflects the finished run. *)
let sample r =
  match r.lt with
  | Some l when r.round mod r.tel_every = 0 ->
    r.last_sample <- r.round;
    tel_sample r l
  | _ -> ()

let finalize r =
  (match r.lt with
   | Some l when r.last_sample <> r.round -> tel_sample r l
   | _ -> ());
  let final_round = r.round in
  (* Conservation and duplicate checks. Every injected packet is
     classified: delivered, still queued, or lost-to-crash — lost packets
     left both the queues and [Metrics.total_queued], so the equality
     below holds for faulted runs too. *)
  let queued_total = ref 0 in
  let seen = Int_table.create 4096 in
  let max_age = ref 0 in
  Array.iter
    (fun q ->
      queued_total := !queued_total + Pqueue.size q;
      Pqueue.iter q ~f:(fun p ->
          if Int_table.mem seen p.Packet.id then
            raise (Protocol_violation "packet present in two queues");
          Int_table.replace seen p.Packet.id ();
          let tracked = Int_table.find r.registry p.Packet.id in
          if tracked.delivered then
            raise (Protocol_violation "delivered packet still queued");
          let age = final_round - p.Packet.injected_at in
          if age > !max_age then max_age := age))
    r.queues;
  if !queued_total <> Metrics.total_queued r.metrics then
    raise (Protocol_violation "packet conservation failed");
  Metrics.finalize r.metrics ~final_round ~max_queued_age:!max_age

(* ---- building a run ----------------------------------------------- *)

(* Resume, part 1: validate that the snapshot was taken under this exact
   configuration (a mismatch would not crash — it would silently produce
   a different run). Checked before any per-station state is built, so a
   wrong [n] is reported as a resume error, not as whatever the
   algorithm's constructor does with it. *)
let check_resume (module A : Algorithm.S) (s : snapshot) ~cfg ~n ~k
    ~adversary:adv ~sample_every ~plan =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg ("Engine.run: cannot resume: " ^ msg))
      fmt
  in
  if s.snap_version <> snapshot_version then
    fail "snapshot format version %d (this engine writes %d)" s.snap_version
      snapshot_version;
  if s.algorithm <> A.name then
    fail "snapshot is of algorithm %s, not %s" s.algorithm A.name;
  if s.state_version <> A.state_version then
    fail "%s state version %d (current %d)" A.name s.state_version
      A.state_version;
  if s.snap_n <> n || s.snap_k <> k then
    fail "snapshot has n=%d k=%d, run has n=%d k=%d" s.snap_n s.snap_k n k;
  if s.cfg_rounds <> cfg.rounds then
    fail "snapshot ran %d rounds, config says %d" s.cfg_rounds cfg.rounds;
  if s.drain_limit <> cfg.drain_limit then
    fail "snapshot drain limit %d, config says %d" s.drain_limit
      cfg.drain_limit;
  if s.sample_every <> sample_every then
    fail "snapshot sampled every %d rounds, this run samples every %d"
      s.sample_every sample_every;
  if s.adversary_name <> adv.Mac_adversary.Adversary.name then
    fail "snapshot adversary %s, run adversary %s" s.adversary_name
      adv.Mac_adversary.Adversary.name;
  if
    not
      (Qrat.equal s.rate adv.Mac_adversary.Adversary.rate
      && Qrat.equal s.burst adv.Mac_adversary.Adversary.burst)
  then
    fail "snapshot adversary type (%s,%s), run type (%s,%s)"
      (Qrat.to_string s.rate) (Qrat.to_string s.burst)
      (Qrat.to_string adv.Mac_adversary.Adversary.rate)
      (Qrat.to_string adv.Mac_adversary.Adversary.burst);
  if s.pacing <> adv.Mac_adversary.Adversary.pacing then
    fail "snapshot and run disagree on pacing";
  let pattern = adv.Mac_adversary.Adversary.pattern.Mac_adversary.Pattern.name in
  if s.pattern_name <> pattern then
    fail "snapshot pattern %s, run pattern %s" s.pattern_name pattern;
  let plan_name = Option.map Mac_faults.Fault_plan.name plan in
  if s.plan_name <> plan_name then
    fail "snapshot fault plan %s, run fault plan %s"
      (Option.value s.plan_name ~default:"<none>")
      (Option.value plan_name ~default:"<none>")

(* Resume, part 2: the snapshot is known to match; rebuild every piece of
   mutable state from it. Sparse state is derived, not checkpointed:
   snapshots are mode-agnostic (a dense-written snapshot resumes sparsely
   and vice versa — the runs are bit-identical either way), so
   [prev_list] and [nonempty] are rebuilt from the restored arrays and
   queues. *)
let restore (type st) (r : st run) (s : snapshot) =
  let module A = (val r.algo) in
  r.next_id <- s.next_id;
  r.round <- s.round;
  r.drained <- s.drained;
  for i = 0 to r.n - 1 do
    r.states.(i) <- A.decode_state s.states.(i);
    Array.iteri
      (fun j (p : Packet.t) ->
        Pqueue.add r.queues.(i) p;
        Int_table.replace r.registry p.Packet.id
          { packet = p; delivered = false; hops = s.hops.(i).(j) })
      s.queues.(i);
    if Array.length s.queues.(i) > 0 then note_queue_add r i;
    if s.prev_on.(i) then begin
      r.on_list.(r.on_len) <- i;
      r.on_len <- r.on_len + 1
    end;
    if s.crashed.(i) then begin
      r.crashed.(i) <- true;
      r.crashed_count <- r.crashed_count + 1
    end
  done;
  set_prev_on r r.on_list r.on_len;
  Mac_adversary.Adversary.restore_driver r.driver s.adversary_state;
  match r.lt with Some l -> l.lt_last_round <- s.round | None -> ()

let start ?config ?resume ~algorithm:(module A : Algorithm.S) ~n ~k ~adversary
    ~rounds () =
  let cfg =
    match config with
    | None -> default_config ~rounds
    | Some c ->
      (* One source of truth: a config whose [rounds] disagrees with the
         [~rounds] argument used to win silently — now it is an error. *)
      if c.rounds <> rounds then
        invalid_arg
          (Printf.sprintf
             "Engine.run: ~rounds:%d disagrees with config.rounds = %d" rounds
             c.rounds);
      c
  in
  let cap = A.required_cap ~n ~k in
  let sample_every =
    if cfg.sample_every > 0 then cfg.sample_every
    else max 1 ((cfg.rounds + cfg.drain_limit) / 1024)
  in
  let metrics =
    match resume with
    | Some (s : snapshot) -> Metrics.copy s.metrics
    | None ->
      Metrics.create ~algorithm:A.name
        ~adversary:adversary.Mac_adversary.Adversary.name ~n ~k ~cap
        ~sample_every
  in
  let plan =
    match cfg.faults with
    | Some p when not (Mac_faults.Fault_plan.is_empty p) -> Some p
    | _ -> None
  in
  Option.iter
    (check_resume (module A) ~cfg ~n ~k ~adversary ~sample_every ~plan)
    resume;
  let queues = Array.init n (fun _ -> Pqueue.create ~n) in
  let states = Array.init n (fun me -> A.create ~n ~k ~me) in
  let sparse =
    match cfg.mode with
    | Dense -> None
    | Sparse ->
      (match A.sparse with
       | Some make -> Some (make ~n ~k)
       | None ->
         invalid_arg
           (Printf.sprintf
              "Engine.run: mode Sparse but algorithm %s provides no sparse \
               schedule (use Auto or Dense)"
              A.name))
    | Auto ->
      (match A.sparse with Some make -> Some (make ~n ~k) | None -> None)
  in
  let prev_on = Array.make n false in
  (* One view for the whole run: the closure record is allocated here,
     outside the round loop, and only the mutable [round] field advances.
     The closures read live engine state, so the view is always current. *)
  let view : Mac_adversary.View.t =
    { n; round = 0;
      queue_size = (fun i -> Pqueue.size queues.(i));
      queued_to =
        (fun d ->
          let total = ref 0 in
          for i = 0 to n - 1 do
            total := !total + Pqueue.count_to queues.(i) d
          done;
          !total);
      total_queued = (fun () -> Metrics.total_queued metrics);
      was_on = (fun i -> prev_on.(i)) }
  in
  let r =
    { algo = (module A); cfg; n; k; cap; plan; sample_every; metrics;
      queues; states;
      registry = Int_table.create 4096;
      driver = Mac_adversary.Adversary.start adversary;
      view; next_id = 0; round = 0; drained = 0;
      on = Array.make n false; prev_on;
      on_list = Array.make n 0; on_len = 0;
      prev_list = Array.make n 0; prev_len = 0;
      tx_station = Array.make n 0;
      tx_message = Array.make n (Message.light []);
      tx_count = 0; feedback = Feedback.Silence; adopters = [];
      crashed = Array.make n false; crashed_count = 0;
      jam_now = false; noise_now = false;
      sparse;
      nonempty = (if Option.is_some sparse then Array.make n 0 else [||]);
      nonempty_at = (if Option.is_some sparse then Array.make n (-1) else [||]);
      nonempty_len = 0; na_cache = -1; adm_cache = -1;
      observing = Option.is_some cfg.sink;
      lt =
        Option.map
          (fun p ->
            attach_telemetry p ~target:(cfg.rounds + cfg.drain_limit) ~metrics)
          cfg.telemetry;
      tel_every =
        (match cfg.telemetry with Some p -> p.Telemetry.every | None -> 0);
      timing = false; obs_acc = 0.0; clocks = Array.make 5 0.0;
      last_sample = min_int; finished = false }
  in
  Option.iter (restore r) resume;
  Session r

(* ---- sessions ----------------------------------------------------- *)

let complete r =
  r.round >= r.cfg.rounds
  && (r.drained >= r.cfg.drain_limit || Metrics.total_queued r.metrics = 0)

let session_round (Session r) = r.round
let session_backlog (Session r) = Metrics.total_queued r.metrics
let session_complete (Session r) = complete r
let session_snapshot (Session r) = snapshot r

(* The driver loop, with a step budget. One step is a concrete round or
   one analytic skip (which may cover many rounds); injection rounds come
   first, then drain rounds. A budget of [max_int] is the closed-loop
   run — the budget test is the only difference, and it never binds. *)
let advance (Session r) ~max_steps =
  if r.finished then invalid_arg "Engine.advance: session already finished";
  let steps = ref 0 in
  while !steps < max_steps && not (complete r) do
    if not (try_skip r) then step r;
    checkpoint r;
    sample r;
    (match r.cfg.heartbeat with Some beat -> beat () | None -> ());
    incr steps
  done;
  !steps

let finish (Session r) =
  if r.finished then invalid_arg "Engine.finish: session already finished";
  if not (complete r) then
    invalid_arg "Engine.finish: the run has not completed";
  r.finished <- true;
  finalize r

let run ?config ?resume ~algorithm ~n ~k ~adversary ~rounds () =
  let s = start ?config ?resume ~algorithm ~n ~k ~adversary ~rounds () in
  ignore (advance s ~max_steps:max_int : int);
  finish s
