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
   ([Algorithm.S.sparse]) and fails if absent: concrete rounds touch only
   scheduled or previously-on stations, and provably-silent stretches are
   skipped analytically in O(1). [Auto] uses sparse when the algorithm
   supports it and falls back to dense otherwise. Sparse and dense runs of
   the same configuration are bit-identical (events, summaries, snapshot
   bytes) — the verify layer certifies this differentially. *)
type mode = Dense | Sparse | Auto

type config = {
  rounds : int;
  drain_limit : int;
  sample_every : int;
  check_schedule : bool;
  strict : bool;
  trace : Trace.t option;
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
    strict = true; trace = None; sink = None; faults = None;
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

(* An in-flight run, stopped at a round boundary. [run] drives one to
   completion in a single call; the serve layer drives one incrementally
   (a bounded batch of rounds at a time, with external injections arriving
   between batches). All fields are the closures the classical [run] loop
   used internally — the driver loops in [advance] are verbatim the old
   ones, so a session advanced with an unbounded budget is bit-identical
   to the closed-loop run. *)
type session = {
  ses_cfg : config;
  ses_round : int ref;
  ses_drained : int ref;
  ses_metrics : Metrics.t;
  ses_step : round:int -> draining:bool -> unit;
  ses_try_skip : draining:bool -> bool;
  ses_snapshot : unit -> snapshot;
  ses_checkpoint : unit -> unit;
  ses_sample : unit -> unit;
  ses_beat : unit -> unit;
  ses_finalize : unit -> Metrics.summary;
  mutable ses_done : bool;
}

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
    | Some s -> Metrics.copy s.metrics
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
  (* Resume, part 1: validate that the snapshot was taken under this exact
     configuration (a mismatch would not crash — it would silently produce
     a different run). Checked before any per-station state is built, so a
     wrong [n] is reported as a resume error, not as whatever the
     algorithm's constructor does with it. *)
  (match resume with
   | None -> ()
   | Some s ->
     let fail fmt =
       Printf.ksprintf
         (fun msg -> invalid_arg ("Engine.run: cannot resume: " ^ msg))
         fmt
     in
     if s.snap_version <> snapshot_version then
       fail "snapshot format version %d (this engine writes %d)"
         s.snap_version snapshot_version;
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
     if s.adversary_name <> adversary.Mac_adversary.Adversary.name then
       fail "snapshot adversary %s, run adversary %s" s.adversary_name
         adversary.Mac_adversary.Adversary.name;
     if
       not
         (Qrat.equal s.rate adversary.Mac_adversary.Adversary.rate
         && Qrat.equal s.burst adversary.Mac_adversary.Adversary.burst)
     then
       fail "snapshot adversary type (%s,%s), run type (%s,%s)"
         (Qrat.to_string s.rate) (Qrat.to_string s.burst)
         (Qrat.to_string adversary.Mac_adversary.Adversary.rate)
         (Qrat.to_string adversary.Mac_adversary.Adversary.burst);
     if s.pacing <> adversary.Mac_adversary.Adversary.pacing then
       fail "snapshot and run disagree on pacing";
     if
       s.pattern_name
       <> adversary.Mac_adversary.Adversary.pattern.Mac_adversary.Pattern.name
     then
       fail "snapshot pattern %s, run pattern %s" s.pattern_name
         adversary.Mac_adversary.Adversary.pattern.Mac_adversary.Pattern.name;
     if s.plan_name <> Option.map Mac_faults.Fault_plan.name plan then
       fail "snapshot fault plan %s, run fault plan %s"
         (Option.value s.plan_name ~default:"<none>")
         (Option.value
            (Option.map Mac_faults.Fault_plan.name plan)
            ~default:"<none>"));
  let queues = Array.init n (fun _ -> Pqueue.create ~n) in
  let states = Array.init n (fun me -> A.create ~n ~k ~me) in
  let registry : tracked Int_table.t = Int_table.create 4096 in
  let driver = Mac_adversary.Adversary.start adversary in
  let next_id = ref 0 in
  let prev_on = Array.make n false in
  let on = Array.make n false in
  let strict = cfg.strict in
  (* Scratch space for the round loop: at most n transmissions per round,
     recorded into preallocated arrays instead of a consed-up list. The
     message slots hold stale messages between rounds; [tx_count] is the
     only truth about what is live. *)
  let tx_station = Array.make n 0 in
  let tx_message = Array.make n (Message.light []) in
  let tx_count = ref 0 in

  (* Fault injection. An absent or empty plan keeps every code path below
     identical to the fault-free engine: [crashed] stays all-false, the
     jam flags stay unset, and [apply_faults] is never called — so a run
     with [faults = None] is bit-identical (metrics and event stream) to
     one predating the fault layer. *)
  let crashed = Array.make n false in
  let crashed_count = ref 0 in
  let jam_now = ref false in
  let noise_now = ref false in

  (* Sparse execution. [sparse_impl = Some _] switches the round loop to
     touching only stations that are scheduled on this round or were on
     last round, and arms the analytic skip-ahead. Supporting state:
     - [nonempty]: the stations currently holding packets (maintained at
       every queue mutation), handed to the algorithm's [next_active];
     - [na_cache]: memoised next-possible-transmission round. -1 =
       unknown, [max_int] = never, else an under-estimate that is exact
       until a queue changes: packet arrivals relax it in place, removals
       invalidate it (a removal can only push the true round later, so
       the stale value would merely cost a concrete round — but it is
       cheap to recompute and keeps reasoning simple);
     - [prev_list]: ascending stations with [prev_on] set — the engine
       invariant in sparse mode is that [on]/[prev_on] are false outside
       it, so a round only needs the union of [prev_list] and the current
       on-set. *)
  let sparse_impl =
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
  let nonempty : unit Int_table.t = Int_table.create 64 in
  let na_cache = ref (-1) in
  (* Memoised [Adversary.next_admission]. The prediction is deterministic
     through quiet rounds (the bucket refills on schedule), so it stays
     exact until packets are actually admitted; [inject] clears it then.
     A stale value (< current round: the pattern declined its budget)
     falls through the [>= round] validity check and is recomputed. *)
  let adm_cache = ref (-1) in
  let prev_list = ref [||] in
  let cur_set = ref [||] in
  let note_queue_add ~round i =
    match sparse_impl with
    | None -> ()
    | Some sp ->
      Int_table.replace nonempty i ();
      if !na_cache >= round then
        (match
           sp.Algorithm.next_active ~round ~nonempty:[ (i, queues.(i)) ]
         with
         | Some v when v < !na_cache -> na_cache := v
         | _ -> ())
  in
  let note_queue_removed i =
    match sparse_impl with
    | None -> ()
    | Some _ ->
      if Pqueue.is_empty queues.(i) then Int_table.remove nonempty i;
      na_cache := -1
  in

  (* Resume, part 2: the snapshot is known to match; rebuild every piece
     of mutable state from it. *)
  (match resume with
   | None -> ()
   | Some s ->
     next_id := s.next_id;
     for i = 0 to n - 1 do
       states.(i) <- A.decode_state s.states.(i);
       Array.iteri
         (fun j (p : Packet.t) ->
           Pqueue.add queues.(i) p;
           Int_table.replace registry p.Packet.id
             { packet = p; delivered = false; hops = s.hops.(i).(j) })
         s.queues.(i)
     done;
     Array.blit s.prev_on 0 prev_on 0 n;
     Array.blit s.crashed 0 crashed 0 n;
     Array.iter (fun c -> if c then incr crashed_count) crashed;
     Mac_adversary.Adversary.restore_driver driver s.adversary_state);

  (* Sparse state is derived, not checkpointed: snapshots are mode-agnostic
     (a dense-written snapshot resumes sparsely and vice versa — the runs
     are bit-identical either way), so rebuild [prev_list] and [nonempty]
     from the restored arrays and queues. *)
  (match sparse_impl with
   | None -> ()
   | Some _ ->
     let pl = ref [] in
     for i = n - 1 downto 0 do
       if prev_on.(i) then pl := i :: !pl;
       if not (Pqueue.is_empty queues.(i)) then Int_table.replace nonempty i ()
     done;
     prev_list := Array.of_list !pl);

  (* Event emission. Every observable step of the round loop produces a
     typed Event.t, fanned out to the configured sinks (the legacy trace
     ring rides along as one of them). With no sink installed, the whole
     apparatus is a single [observing] branch per event — no allocation,
     no formatting — so un-observed runs keep their Table-1 numbers. *)
  let sinks =
    (match cfg.trace with Some t -> [ Sink.ring t ] | None -> [])
    @ (match cfg.sink with Some s -> [ s ] | None -> [])
  in
  let observing = sinks <> [] in
  let emit =
    match sinks with
    | [ s ] -> s.Sink.emit
    | _ -> fun ~round ev -> List.iter (fun (s : Sink.t) -> s.emit ~round ev) sinks
  in

  (* Live telemetry. With [cfg.telemetry = None] every hook below
     degenerates to a false branch on a pre-existing ref — no closures,
     no allocation, no clock reads — so an uninstrumented run keeps the
     zero-allocation fast path and stays bit-identical. When a probe is
     installed, engine phases are timed only on cadence-boundary rounds
     (the round preceding each sample), keeping the overhead bounded by
     the cadence rather than the round count. *)
  let lt =
    Option.map
      (fun p ->
        let l =
          attach_telemetry p ~target:(cfg.rounds + cfg.drain_limit) ~metrics
        in
        (match resume with Some s -> l.lt_last_round <- s.round | None -> ());
        l)
      cfg.telemetry
  in
  let tel_every =
    match cfg.telemetry with Some p -> p.Telemetry.every | None -> 0
  in
  let timing = ref false in
  let obs_acc = ref 0.0 in
  let emit =
    match lt with
    | None -> emit
    | Some _ ->
      let base = emit in
      fun ~round ev ->
        if !timing then begin
          let t0 = Unix.gettimeofday () in
          base ~round ev;
          obs_acc := !obs_acc +. (Unix.gettimeofday () -. t0)
        end
        else base ~round ev
  in

  (* Applied at the top of the round, after injection and before mode
     decisions: a crash this round already silences the station's mode
     decision; a restart rejoins from this round's decision on. Jam and
     noise only raise flags here — they act at channel resolution. *)
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
                (Protocol_violation
                   (Printf.sprintf "fault plan crashes station %d (n = %d)" i n));
            if not crashed.(i) then begin
              crashed.(i) <- true;
              incr crashed_count;
              let lost =
                match policy with
                | Mac_faults.Fault_plan.Retain -> 0
                | Mac_faults.Fault_plan.Drop ->
                  let lost =
                    List.fold_left
                      (fun lost (p : Packet.t) ->
                        Int_table.remove registry p.Packet.id;
                        lost + 1)
                      0
                      (Pqueue.drain queues.(i))
                  in
                  note_queue_removed i;
                  lost
              in
              Metrics.note_crash metrics ~round ~lost;
              if observing then
                emit ~round (Event.Station_crashed { station = i; lost })
            end
          | Restart { station = i } ->
            if i < 0 || i >= n then
              raise
                (Protocol_violation
                   (Printf.sprintf "fault plan restarts station %d (n = %d)" i n));
            if crashed.(i) then begin
              crashed.(i) <- false;
              decr crashed_count;
              states.(i) <- A.create ~n ~k ~me:i;
              Metrics.note_restart metrics ~round;
              if observing then
                emit ~round (Event.Station_restarted { station = i })
            end
          | Jam -> jam_now := true
          | Noise -> noise_now := true)
        (Mac_faults.Fault_plan.actions p ~round)
  in

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

  (* The round [step] is executing, and the feedback of its channel
     resolution: the per-station loops below are built once per run and
     read the round from here, so a round allocates no closures. *)
  let cur_round = ref 0 in
  let cur_feedback = ref Feedback.Silence in

  let inject_pair (src, dst) =
    let round = !cur_round in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      raise (Protocol_violation "adversary injected out-of-range station");
    let id = !next_id in
    incr next_id;
    let p = Packet.make ~id ~src ~dst ~injected_at:round in
    if src = dst then begin
      (* Self-addressed packets need no channel use; delivered at
         injection (see DESIGN.md interpretation 5). Patterns never
         produce these; kept for external users of the engine. They
         never enter a queue, so they must not touch the queue peaks. *)
      Metrics.note_self_injection metrics;
      if observing then begin
        emit ~round (Event.Injected { id; src; dst });
        emit ~round
          (Event.Delivered { id; from_ = src; dst; delay = 0; hops = 0 })
      end
    end
    else begin
      Pqueue.add queues.(src) p;
      note_queue_add ~round src;
      Int_table.replace registry id { packet = p; delivered = false; hops = 0 };
      Metrics.note_injection metrics;
      Metrics.note_station_queue metrics (Pqueue.size queues.(src));
      if observing then emit ~round (Event.Injected { id; src; dst })
    end
  in
  let inject round =
    view.Mac_adversary.View.round <- round;
    match Mac_adversary.Adversary.inject driver ~view with
    | [] -> ()
    | pairs ->
      adm_cache := -1;
      List.iter inject_pair pairs
  in

  (* One telemetry sample: refresh every gauge/counter from the live
     collector and engine state, then hand the registry to the sinks (as
     a typed event) and the probe's [on_sample] hook. Reads only. *)
  let tel_sample (l : live_telemetry) ~round =
    let now = Unix.gettimeofday () in
    let live = Metrics.live_stats metrics in
    Telemetry.set_gauge l.lt_round (float_of_int round);
    let dr = round - l.lt_last_round in
    let dt = now -. l.lt_last_time in
    if dr > 0 && dt > 0.0 then
      Telemetry.set_gauge l.lt_rps (float_of_int dr /. dt);
    Telemetry.set_gauge l.lt_backlog
      (float_of_int live.Metrics.live_total_queued);
    Telemetry.set_gauge l.lt_backlog_peak
      (float_of_int live.Metrics.live_max_total_queue);
    Telemetry.set_gauge l.lt_queue_peak
      (float_of_int live.Metrics.live_max_station_queue);
    Telemetry.set_gauge l.lt_tokens
      (Qrat.to_float (Mac_adversary.Adversary.tokens driver));
    let crashed_count = ref 0 in
    Array.iter (fun c -> if c then incr crashed_count) crashed;
    Telemetry.set_gauge l.lt_crashed (float_of_int !crashed_count);
    Telemetry.set_gauge l.lt_energy_window
      (float_of_int (live.Metrics.live_station_rounds - l.lt_last_energy));
    Telemetry.set_counter l.lt_energy_total live.Metrics.live_station_rounds;
    Telemetry.set_counter l.lt_injected live.Metrics.live_injected;
    Telemetry.set_counter l.lt_delivered live.Metrics.live_delivered;
    Telemetry.set_counter l.lt_collisions live.Metrics.live_collision_rounds;
    Telemetry.set_counter l.lt_jams live.Metrics.live_jammed_rounds;
    Telemetry.set_counter l.lt_lost live.Metrics.live_lost;
    Telemetry.inc l.lt_samples;
    let st = Gc.quick_stat () in
    let minor = st.Gc.minor_words in
    if dr > 0 then
      Telemetry.set_gauge l.lt_gc_minor_rate
        ((minor -. l.lt_last_minor) /. float_of_int dr);
    Telemetry.set_gauge l.lt_gc_heap (float_of_int st.Gc.heap_words);
    Telemetry.set_counter l.lt_gc_majors st.Gc.major_collections;
    l.lt_last_time <- now;
    l.lt_last_round <- round;
    l.lt_last_energy <- live.Metrics.live_station_rounds;
    l.lt_last_minor <- minor;
    if observing then
      emit ~round
        (Event.Telemetry
           { sample = Telemetry.sample l.lt_probe.Telemetry.registry });
    l.lt_probe.Telemetry.on_sample ~round l.lt_probe.Telemetry.registry
  in

  (* Clock readings at the phase boundaries of a timed round, kept in a
     float array so that reading the clock allocates nothing. *)
  let phase_clock = Array.make 5 0.0 in
  let clock i = if !timing then phase_clock.(i) <- Unix.gettimeofday () in

  (* Actions of switched-on stations, recorded into the scratch arrays in
     station order. *)
  let act_station i =
    if on.(i) then
      match A.act states.(i) ~round:!cur_round ~queue:queues.(i) with
      | Action.Listen -> ()
      | Action.Transmit m ->
        (match m.Message.packet with
         | Some p ->
           if not (Pqueue.mem queues.(i) p) then
             raise
               (Protocol_violation
                  (Printf.sprintf "station %d transmitted a packet not in its queue" i))
         | None -> ());
        if A.plain_packet && not (Message.is_plain m) then
          raise
            (Protocol_violation
               (Printf.sprintf "plain-packet algorithm %s sent a non-plain message" A.name));
        tx_station.(!tx_count) <- i;
        tx_message.(!tx_count) <- m;
        incr tx_count
  in
  (* Stations reacting to this round's feedback with an adoption, most
     recent first. *)
  let adopters = ref [] in
  let observe_station i =
    if on.(i) then
      match
        A.observe states.(i) ~round:!cur_round ~queue:queues.(i)
          ~feedback:!cur_feedback
      with
      | Reaction.No_reaction -> ()
      | Reaction.Adopt_heard_packet -> adopters := i :: !adopters
  in

  let step ~round ~draining =
    cur_round := round;
    if tel_every > 0 then begin
      (* Time this round's phases iff it ends on a sample boundary. *)
      timing := (round + 1) mod tel_every = 0;
      if !timing then obs_acc := 0.0
    end;
    clock 0;
    if not draining then inject round;
    clock 1;
    apply_faults round;
    clock 2;
    (* Mode decisions. Crashed stations are inert: forced off, their
       on_duty never called (state frozen for a later restart), and the
       static-schedule check waived — the schedule says on, the fault
       says otherwise. *)
    let on_count = ref 0 in
    (match sparse_impl with
     | None ->
       for i = 0 to n - 1 do
         on.(i) <-
           (not crashed.(i)) && A.on_duty states.(i) ~round ~queue:queues.(i);
         if on.(i) then incr on_count;
         if observing && on.(i) <> prev_on.(i) then
           emit ~round
             (if on.(i) then Event.Switched_on { station = i }
              else Event.Switched_off { station = i });
         if cfg.check_schedule && not crashed.(i) then
           match A.static_schedule with
           | Some schedule ->
             if on.(i) <> schedule ~n ~k ~me:i ~round then
               raise
                 (Protocol_violation
                    (Printf.sprintf
                       "station %d round %d: on_duty disagrees with static schedule"
                       i round))
           | None -> ()
       done
     | Some sp ->
       (* Ascending merge over prev_list ∪ on_set(round). Every station
          outside the union has [on] and [prev_on] false (engine
          invariant), emits no Switched event, and — by the sparse
          contract — neither acts, observes, nor ticks, so visiting only
          the union reproduces the dense round exactly. Station order
          (and hence event order) stays ascending. *)
       let cur = sp.Algorithm.on_set ~round in
       cur_set := cur;
       let pl = !prev_list in
       let np = Array.length pl and nc = Array.length cur in
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
         on.(i) <- in_cur && not crashed.(i);
         if on.(i) then incr on_count;
         if observing && on.(i) <> prev_on.(i) then
           emit ~round
             (if on.(i) then Event.Switched_on { station = i }
              else Event.Switched_off { station = i });
         if cfg.check_schedule && not crashed.(i) then begin
           (* In sparse mode only union members are checked (rounds the
              skip-ahead removes are silent by construction). Verify
              both promises: on_duty matches the sparse on-set, and the
              on-set matches the declared static schedule. *)
           if A.on_duty states.(i) ~round ~queue:queues.(i) <> in_cur then
             raise
               (Protocol_violation
                  (Printf.sprintf
                     "station %d round %d: on_duty disagrees with sparse on_set"
                     i round));
           match A.static_schedule with
           | Some schedule ->
             if in_cur <> schedule ~n ~k ~me:i ~round then
               raise
                 (Protocol_violation
                    (Printf.sprintf
                       "station %d round %d: sparse on_set disagrees with \
                        static schedule"
                       i round))
           | None -> ()
         end
       done);
    Metrics.note_on_count metrics !on_count;
    if observing && !on_count > cap then
      emit ~round (Event.Cap_exceeded { on_count = !on_count; cap });
    tx_count := 0;
    (match sparse_impl with
     | None ->
       for i = 0 to n - 1 do
         act_station i
       done
     | Some _ ->
       (* Only current on-set members can be on; off stations' act is
          Listen by the sparse contract. *)
       Array.iter act_station !cur_set);
    if observing then
      for j = 0 to !tx_count - 1 do
        emit ~round
          (Event.Transmit
             { station = tx_station.(j);
               light = tx_message.(j).Message.packet = None })
      done;
    (* Channel resolution. A jam forces any round with at least one
       transmitter to read as a collision; noise forces a collision even
       on an empty channel. The Round_jammed event (and its metrics note)
       lands immediately before the resolution it affects, so replaying a
       recorded stream books both at the same point the live run did. A
       jam of a zero-transmitter round leaves the channel silent but is
       still counted — the fault fired, whether or not anyone was
       talking. Colliding-station lists exist only in events, so they are
       built only when a sink is observing. A round is heard when exactly
       one station transmitted and no fault interfered; its transmitter
       and message are then the first scratch slot. *)
    let jammed = !jam_now || !noise_now in
    let heard = !tx_count = 1 && not jammed in
    let feedback =
      if !tx_count = 0 then
        if !noise_now then begin
          Metrics.note_jammed metrics ~round ~noise:true;
          Metrics.note_collision metrics;
          if observing then begin
            emit ~round (Event.Round_jammed { transmitters = 0; noise = true });
            emit ~round (Event.Collision { stations = [] })
          end;
          Feedback.Collision
        end
        else begin
          if !jam_now then begin
            Metrics.note_jammed metrics ~round ~noise:false;
            if observing then
              emit ~round (Event.Round_jammed { transmitters = 0; noise = false })
          end;
          Metrics.note_silence metrics;
          if observing then emit ~round Event.Silence;
          Feedback.Silence
        end
      else if heard then Feedback.Heard tx_message.(0)
      else begin
        if jammed then begin
          Metrics.note_jammed metrics ~round ~noise:!noise_now;
          if observing then
            emit ~round
              (Event.Round_jammed
                 { transmitters = !tx_count; noise = !noise_now })
        end;
        Metrics.note_collision metrics;
        if observing then
          emit ~round
            (Event.Collision
               { stations = List.init !tx_count (fun j -> tx_station.(j)) });
        Feedback.Collision
      end
    in
    clock 3;
    (* A heard packet leaves the transmitter; it is delivered if its
       destination is on, otherwise it awaits adoption. *)
    let pending = ref None in
    if heard then begin
      let s = tx_station.(0) and m = tx_message.(0) in
      let bits = Message.control_bits m in
      Metrics.note_control_bits metrics bits;
      if observing then
        emit ~round
          (Event.Heard { station = s; bits; light = m.Message.packet = None });
      match m.Message.packet with
      | None -> Metrics.note_light metrics
      | Some p ->
        let removed = Pqueue.remove queues.(s) p in
        assert removed;
        note_queue_removed s;
        let tracked = Int_table.find registry p.Packet.id in
        tracked.hops <- tracked.hops + 1;
        if on.(p.Packet.dst) then begin
          if tracked.delivered then
            raise (Protocol_violation "duplicate delivery");
          tracked.delivered <- true;
          Int_table.remove registry p.Packet.id;
          Metrics.note_delivery metrics
            ~delay:(round - p.Packet.injected_at) ~hops:tracked.hops;
          if observing then
            emit ~round
              (Event.Delivered
                 { id = p.Packet.id; from_ = s; dst = p.Packet.dst;
                   delay = round - p.Packet.injected_at;
                   hops = tracked.hops })
        end
        else pending := m.Message.packet
    end;
    (* Feedback and reactions. *)
    cur_feedback := feedback;
    adopters := [];
    (match sparse_impl with
     | None ->
       for i = 0 to n - 1 do
         observe_station i
       done
     | Some _ -> Array.iter observe_station !cur_set);
    let adopters = List.rev !adopters in
    (match !pending, adopters with
     | None, [] -> ()
     | None, _ :: _ ->
       if observing then
         emit ~round (Event.Spurious_adoption { stations = adopters });
       violation ~strict metrics Metrics.note_spurious_adoption
         "adoption reaction with no packet pending"
     | Some p, [] ->
       (* Nobody took the packet: return it to the transmitter. *)
       let s = tx_station.(0) in
       Pqueue.add queues.(s) p;
       note_queue_add ~round s;
       if observing then
         emit ~round (Event.Stranded { id = p.Packet.id; station = s });
       violation ~strict metrics Metrics.note_stranded
         (Printf.sprintf "packet %d stranded at round %d" p.Packet.id round)
     | Some p, adopter :: rest ->
       let s = tx_station.(0) in
       if rest <> [] then begin
         if observing then
           emit ~round (Event.Adoption_conflict { stations = adopters });
         violation ~strict metrics Metrics.note_adoption_conflict
           "multiple stations adopted the same packet"
       end;
       if adopter = s then
         raise (Protocol_violation "transmitter adopted its own packet");
       if A.direct then
         raise
           (Protocol_violation
              (Printf.sprintf "direct algorithm %s used a relay" A.name));
       Pqueue.add queues.(adopter) p;
       note_queue_add ~round adopter;
       Metrics.note_relay metrics;
       Metrics.note_station_queue metrics (Pqueue.size queues.(adopter));
       if observing then
         emit ~round
           (Event.Relayed
              { id = p.Packet.id; from_ = s; relay = adopter;
                dst = p.Packet.dst }));
    (* Switched-off stations tick; crashed stations are frozen, not off.
       Sparse-contract algorithms declare offline_tick an unconditional
       no-op, so the sparse path skips the whole loop. *)
    (match sparse_impl with
     | None ->
       for i = 0 to n - 1 do
         if (not on.(i)) && not crashed.(i) then
           A.offline_tick states.(i) ~round ~queue:queues.(i)
       done;
       Array.blit on 0 prev_on 0 n
     | Some _ ->
       (* prev_on/prev_list: clear last round's on-set, record this one;
          outside both, the arrays are already false (invariant). *)
       let pl = !prev_list in
       for j = 0 to Array.length pl - 1 do
         prev_on.(pl.(j)) <- false
       done;
       let cur = !cur_set in
       let cnt = ref 0 in
       for j = 0 to Array.length cur - 1 do
         if on.(cur.(j)) then begin
           prev_on.(cur.(j)) <- true;
           incr cnt
         end
       done;
       let np = Array.make !cnt 0 in
       let next = ref 0 in
       for j = 0 to Array.length cur - 1 do
         if on.(cur.(j)) then begin
           np.(!next) <- cur.(j);
           incr next
         end
       done;
       prev_list := np);
    Metrics.end_round metrics ~round ~draining;
    if observing then
      emit ~round (Event.Round_end { on_count = !on_count; draining });
    if !timing then begin
      match lt with
      | Some l ->
        clock 4;
        for ph = 0 to 3 do
          Histogram.record l.lt_phase.(ph)
            (int_of_float ((phase_clock.(ph + 1) -. phase_clock.(ph)) *. 1e9))
        done;
        Histogram.record l.lt_phase.(4) (int_of_float (!obs_acc *. 1e9))
      | None -> ()
    end
  in

  let round = ref 0 in
  let drained = ref 0 in
  (match resume with
   | Some s ->
     round := s.round;
     drained := s.drained
   | None -> ());
  (* Snapshots are taken between rounds: round [!round] is the next one to
     execute and everything per-round (scratch arrays, jam flags, the view)
     is recomputed at the top of [step], so nothing transient escapes.
     Building a snapshot reads but never writes engine state — a checkpointed
     run is bit-identical to an unobserved one. *)
  let make_snapshot () =
    { snap_version = snapshot_version;
      algorithm = A.name;
      state_version = A.state_version;
      snap_n = n;
      snap_k = k;
      adversary_name = adversary.Mac_adversary.Adversary.name;
      rate = adversary.Mac_adversary.Adversary.rate;
      burst = adversary.Mac_adversary.Adversary.burst;
      pacing = adversary.Mac_adversary.Adversary.pacing;
      pattern_name =
        adversary.Mac_adversary.Adversary.pattern.Mac_adversary.Pattern.name;
      plan_name = Option.map Mac_faults.Fault_plan.name plan;
      cfg_rounds = cfg.rounds;
      drain_limit = cfg.drain_limit;
      sample_every;
      round = !round;
      drained = !drained;
      next_id = !next_id;
      queues = Array.map (fun q -> Array.of_list (Pqueue.to_list q)) queues;
      hops =
        Array.map
          (fun q ->
            let hs = Array.make (Pqueue.size q) 0 in
            let j = ref 0 in
            Pqueue.iter q ~f:(fun p ->
                hs.(!j) <- (Int_table.find registry p.Packet.id).hops;
                incr j);
            hs)
          queues;
      states = Array.map A.encode_state states;
      prev_on = Array.copy prev_on;
      crashed = Array.copy crashed;
      adversary_state = Mac_adversary.Adversary.save_driver driver;
      metrics = Metrics.copy metrics }
  in
  let maybe_checkpoint () =
    match cfg.on_checkpoint with
    | Some f when cfg.checkpoint_every > 0 && !round mod cfg.checkpoint_every = 0
      ->
      f (make_snapshot ());
      (match lt with Some l -> Telemetry.inc l.lt_checkpoints | None -> ())
    | _ -> ()
  in
  (* Telemetry samples land at round boundaries divisible by the cadence
     (mirroring checkpoints), plus one final sample so the exposition
     always reflects the finished run. *)
  let last_sample = ref min_int in
  let maybe_sample () =
    match lt with
    | Some l when !round mod tel_every = 0 ->
      last_sample := !round;
      tel_sample l ~round:!round
    | _ -> ()
  in
  let beat =
    match cfg.heartbeat with Some h -> h | None -> fun () -> ()
  in
  (* Analytic skip-ahead: advance [round] past a stretch of rounds that
     provably does nothing, in O(1) plus closed-form metric updates, and
     return true; return false when the current round must run concretely.
     A round is skippable when nothing can happen in it:
     - the adversary admits nothing (before [next_admission]; during the
       drain phase it never injects at all);
     - no fault action fires (before the plan's [next_action_round]);
     - no scheduled station can transmit (before [next_active] over the
       non-empty queues) — silent rounds mutate no station state by the
       sparse contract;
     - no station is crashed (a crashed station could make the concrete
       on-count differ from the closed-form [on_count_in]);
     - no sink is observing (observed runs need their per-round events —
       sparse iteration still applies, the skip does not).
     The skip also stops at the next checkpoint boundary and at the round
     preceding each telemetry sample (that round is phase-timed), so
     cadenced side effects fire exactly as in a dense run. Landing state
     is reconstructed in closed form: bucket via [skip_rounds], metrics
     via [skip_quiet], and [prev_on]/[prev_list] as the on-set of the
     last skipped round. *)
  let try_skip ~draining =
    match sparse_impl with
    | None -> false
    | Some sp ->
      if observing || !crashed_count > 0 then false
      else begin
        let r = !round in
        let bound =
          ref (if draining then r + (cfg.drain_limit - !drained) else cfg.rounds)
        in
        let cap_bound v = if v < !bound then bound := v in
        if not draining then begin
          let ta =
            if !adm_cache >= r then !adm_cache
            else begin
              let v = Mac_adversary.Adversary.next_admission driver ~round:r in
              adm_cache := v;
              v
            end
          in
          cap_bound ta
        end;
        (match plan with
         | None -> ()
         | Some p ->
           (match Mac_faults.Fault_plan.next_action_round p ~round:r with
            | Some fr -> cap_bound fr
            | None -> ()));
        let na =
          if !na_cache < 0 || !na_cache < r then begin
            let ne =
              Int_table.fold (fun i () acc -> (i, queues.(i)) :: acc) nonempty []
            in
            let v =
              match sp.Algorithm.next_active ~round:r ~nonempty:ne with
              | Some v -> v
              | None -> max_int
            in
            na_cache := v;
            v
          end
          else !na_cache
        in
        cap_bound na;
        if cfg.checkpoint_every > 0 && Option.is_some cfg.on_checkpoint then
          cap_bound (((r / cfg.checkpoint_every) + 1) * cfg.checkpoint_every);
        if tel_every > 0 then
          cap_bound (((r + tel_every) / tel_every * tel_every) - 1);
        let count = !bound - r in
        if count <= 0 then false
        else begin
          let on_sum, on_max, exceeding =
            sp.Algorithm.on_count_in ~from:r ~until:!bound ~cap
          in
          Metrics.skip_quiet metrics ~from_round:r ~count ~on_sum ~on_max
            ~cap_exceeded_rounds:exceeding ~draining;
          if not draining then
            Mac_adversary.Adversary.skip_rounds driver ~rounds:count;
          Array.iter
            (fun i ->
              on.(i) <- false;
              prev_on.(i) <- false)
            !prev_list;
          let np = sp.Algorithm.on_set ~round:(!bound - 1) in
          Array.iter
            (fun i ->
              on.(i) <- true;
              prev_on.(i) <- true)
            np;
          prev_list := np;
          round := !bound;
          if draining then drained := !drained + count;
          true
        end
      end
  in
  let finalize () =
    (match lt with
     | Some l when !last_sample <> !round -> tel_sample l ~round:!round
     | _ -> ());
    let final_round = !round in
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
            let tracked = Int_table.find registry p.Packet.id in
            if tracked.delivered then
              raise (Protocol_violation "delivered packet still queued");
            let age = final_round - p.Packet.injected_at in
            if age > !max_age then max_age := age))
      queues;
    if !queued_total <> Metrics.total_queued metrics then
      raise (Protocol_violation "packet conservation failed");
    Metrics.finalize metrics ~final_round ~max_queued_age:!max_age
  in
  { ses_cfg = cfg; ses_round = round; ses_drained = drained;
    ses_metrics = metrics; ses_step = step; ses_try_skip = try_skip;
    ses_snapshot = make_snapshot; ses_checkpoint = maybe_checkpoint;
    ses_sample = maybe_sample; ses_beat = beat; ses_finalize = finalize;
    ses_done = false }

let session_round s = !(s.ses_round)
let session_drained s = !(s.ses_drained)
let session_backlog s = Metrics.total_queued s.ses_metrics

let session_complete s =
  !(s.ses_round) >= s.ses_cfg.rounds
  && (!(s.ses_drained) >= s.ses_cfg.drain_limit
     || Metrics.total_queued s.ses_metrics = 0)

let session_snapshot s = s.ses_snapshot ()

(* The two loops below are the classical [run] driver, with a step budget
   added. One "step" is one loop iteration: a concrete round, or one
   analytic skip (which may cover many rounds). A budget of [max_int]
   reproduces the closed-loop run exactly — the budget tests are the only
   difference, and they never bind. *)
let advance s ~max_steps =
  if s.ses_done then invalid_arg "Engine.advance: session already finished";
  let cfg = s.ses_cfg in
  let round = s.ses_round and drained = s.ses_drained in
  let steps = ref 0 in
  while !steps < max_steps && !round < cfg.rounds do
    if not (s.ses_try_skip ~draining:false) then begin
      s.ses_step ~round:!round ~draining:false;
      incr round
    end;
    s.ses_checkpoint ();
    s.ses_sample ();
    s.ses_beat ();
    incr steps
  done;
  while
    !steps < max_steps
    && !round >= cfg.rounds
    && !drained < cfg.drain_limit
    && Metrics.total_queued s.ses_metrics > 0
  do
    if not (s.ses_try_skip ~draining:true) then begin
      s.ses_step ~round:!round ~draining:true;
      incr round;
      incr drained
    end;
    s.ses_checkpoint ();
    s.ses_sample ();
    s.ses_beat ();
    incr steps
  done;
  !steps

let finish s =
  if s.ses_done then invalid_arg "Engine.finish: session already finished";
  if not (session_complete s) then
    invalid_arg "Engine.finish: the run has not completed";
  s.ses_done <- true;
  s.ses_finalize ()

let run ?config ?resume ~algorithm ~n ~k ~adversary ~rounds () =
  let s = start ?config ?resume ~algorithm ~n ~k ~adversary ~rounds () in
  ignore (advance s ~max_steps:max_int : int);
  finish s
