type violations = {
  cap_exceeded : int;
  stranded : int;
  adoption_conflicts : int;
  spurious_adoptions : int;
}

type fault_stats = {
  crashes : int;
  restarts : int;
  jammed_rounds : int;
  noise_rounds : int;
  lost_to_crash : int;
  last_fault_round : int;
  pre_fault_queue : int;
  post_fault_peak_queue : int;
  recovery_rounds : int;
}

type summary = {
  algorithm : string;
  adversary : string;
  n : int;
  k : int;
  rounds : int;
  drain_rounds : int;
  injected : int;
  delivered : int;
  undelivered : int;
  max_delay : int;
  mean_delay : float;
  p99_delay : int;
  delay_histogram : (int * int * int) array;
  max_queued_age : int;
  max_total_queue : int;
  final_total_queue : int;
  max_station_queue : int;
  queue_series : (int * int) array;
  energy_cap : int;
  max_on : int;
  mean_on : float;
  station_rounds : int;
  silent_rounds : int;
  light_rounds : int;
  delivery_rounds : int;
  relay_rounds : int;
  collision_rounds : int;
  max_hops : int;
  control_bits_total : int;
  control_bits_max : int;
  violations : violations;
  faults : fault_stats;
}

type value = Str of string | Int of int | Float of float
type group = Top | Violations | Faults
type field = { name : string; group : group; read : summary -> value }

let fields =
  let str name f = { name; group = Top; read = (fun s -> Str (f s)) } in
  let int name f = { name; group = Top; read = (fun s -> Int (f s)) } in
  let float name f = { name; group = Top; read = (fun s -> Float (f s)) } in
  let violation name f =
    { name; group = Violations; read = (fun s -> Int (f s.violations)) }
  in
  let fault name f =
    { name; group = Faults; read = (fun s -> Int (f s.faults)) }
  in
  [ str "algorithm" (fun s -> s.algorithm);
    str "adversary" (fun s -> s.adversary);
    int "n" (fun s -> s.n);
    int "k" (fun s -> s.k);
    int "rounds" (fun s -> s.rounds);
    int "drain_rounds" (fun s -> s.drain_rounds);
    int "injected" (fun s -> s.injected);
    int "delivered" (fun s -> s.delivered);
    int "undelivered" (fun s -> s.undelivered);
    int "max_delay" (fun s -> s.max_delay);
    float "mean_delay" (fun s -> s.mean_delay);
    int "p99_delay" (fun s -> s.p99_delay);
    int "max_queued_age" (fun s -> s.max_queued_age);
    int "max_total_queue" (fun s -> s.max_total_queue);
    int "final_total_queue" (fun s -> s.final_total_queue);
    int "max_station_queue" (fun s -> s.max_station_queue);
    int "energy_cap" (fun s -> s.energy_cap);
    int "max_on" (fun s -> s.max_on);
    float "mean_on" (fun s -> s.mean_on);
    int "station_rounds" (fun s -> s.station_rounds);
    int "silent_rounds" (fun s -> s.silent_rounds);
    int "light_rounds" (fun s -> s.light_rounds);
    int "delivery_rounds" (fun s -> s.delivery_rounds);
    int "relay_rounds" (fun s -> s.relay_rounds);
    int "collision_rounds" (fun s -> s.collision_rounds);
    int "max_hops" (fun s -> s.max_hops);
    int "control_bits_total" (fun s -> s.control_bits_total);
    int "control_bits_max" (fun s -> s.control_bits_max);
    violation "cap_exceeded" (fun v -> v.cap_exceeded);
    violation "stranded" (fun v -> v.stranded);
    violation "adoption_conflicts" (fun v -> v.adoption_conflicts);
    violation "spurious_adoptions" (fun v -> v.spurious_adoptions);
    fault "crashes" (fun f -> f.crashes);
    fault "restarts" (fun f -> f.restarts);
    fault "jammed_rounds" (fun f -> f.jammed_rounds);
    fault "noise_rounds" (fun f -> f.noise_rounds);
    fault "lost_to_crash" (fun f -> f.lost_to_crash);
    fault "last_fault_round" (fun f -> f.last_fault_round);
    fault "pre_fault_queue" (fun f -> f.pre_fault_queue);
    fault "post_fault_peak_queue" (fun f -> f.post_fault_peak_queue);
    fault "recovery_rounds" (fun f -> f.recovery_rounds) ]

let energy_per_delivery s =
  if s.delivered = 0 then Float.nan
  else float_of_int s.station_rounds /. float_of_int s.delivered

let no_violations s =
  s.violations.cap_exceeded = 0
  && s.violations.stranded = 0
  && s.violations.adoption_conflicts = 0
  && s.violations.spurious_adoptions = 0

let no_faults s = s.faults.last_fault_round < 0

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%s vs %s (n=%d k=%d cap=%d)@,\
     rounds=%d(+%d drain) injected=%d delivered=%d undelivered=%d@,\
     delay: max=%d mean=%.1f p99=%d; oldest queued age=%d@,\
     queues: max-total=%d final=%d max-station=%d@,\
     energy: max-on=%d mean-on=%.2f station-rounds=%d (%.2f/delivery)@,\
     rounds: silent=%d light=%d delivery=%d relay=%d collision=%d@,\
     hops<=%d control-bits: total=%d max/msg=%d@,\
     violations: cap=%d stranded=%d adopt-conflict=%d spurious-adopt=%d"
    s.algorithm s.adversary s.n s.k s.energy_cap s.rounds s.drain_rounds
    s.injected s.delivered s.undelivered s.max_delay s.mean_delay s.p99_delay
    s.max_queued_age s.max_total_queue s.final_total_queue s.max_station_queue
    s.max_on s.mean_on s.station_rounds (energy_per_delivery s) s.silent_rounds
    s.light_rounds s.delivery_rounds s.relay_rounds s.collision_rounds
    s.max_hops s.control_bits_total s.control_bits_max
    s.violations.cap_exceeded s.violations.stranded
    s.violations.adoption_conflicts s.violations.spurious_adoptions;
  if not (no_faults s) then begin
    let f = s.faults in
    Format.fprintf ppf
      "@,faults: crashes=%d restarts=%d jammed=%d (noise %d) lost=%d \
       last@@%d queue %d->%d recovery=%s"
      f.crashes f.restarts f.jammed_rounds f.noise_rounds f.lost_to_crash
      f.last_fault_round f.pre_fault_queue f.post_fault_peak_queue
      (if f.recovery_rounds < 0 then "never"
       else string_of_int f.recovery_rounds)
  end;
  Format.fprintf ppf "@]"

type t = {
  algorithm : string;
  adversary : string;
  n : int;
  k : int;
  cap : int;
  sample_every : int;
  mutable injected : int;
  mutable delivered : int;
  mutable rounds : int;
  mutable drain_rounds : int;
  mutable max_delay : int;
  mutable delay_sum : float;
  delay_hist : Histogram.t;
  mutable max_total_queue : int;
  mutable max_station_queue : int;
  mutable series_rev : (int * int) list;
  mutable max_on : int;
  mutable on_total : int;
  mutable silent_rounds : int;
  mutable light_rounds : int;
  mutable delivery_rounds : int;
  mutable relay_rounds : int;
  mutable collision_rounds : int;
  mutable max_hops : int;
  mutable control_bits_total : int;
  mutable control_bits_max : int;
  mutable cap_exceeded : int;
  mutable stranded : int;
  mutable adoption_conflicts : int;
  mutable spurious_adoptions : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable jammed_rounds : int;
  mutable noise_rounds : int;
  mutable lost : int;
  mutable first_fault_round : int;
  mutable last_fault_round : int;
  mutable pre_fault_queue : int;
  mutable post_fault_peak : int;
  mutable last_exceed : int;
      (* last round end with backlog above the pre-fault baseline *)
  qsizes : int array; (* queue sizes reconstructed when replaying events *)
}

let create ~algorithm ~adversary ~n ~k ~cap ~sample_every =
  { algorithm; adversary; n; k; cap; sample_every = max 1 sample_every;
    injected = 0; delivered = 0; rounds = 0; drain_rounds = 0;
    max_delay = 0; delay_sum = 0.0; delay_hist = Histogram.create ();
    max_total_queue = 0; max_station_queue = 0; series_rev = [];
    max_on = 0; on_total = 0;
    silent_rounds = 0; light_rounds = 0; delivery_rounds = 0; relay_rounds = 0;
    collision_rounds = 0; max_hops = 0;
    control_bits_total = 0; control_bits_max = 0;
    cap_exceeded = 0; stranded = 0; adoption_conflicts = 0;
    spurious_adoptions = 0;
    crashes = 0; restarts = 0; jammed_rounds = 0; noise_rounds = 0;
    lost = 0; first_fault_round = -1; last_fault_round = -1;
    pre_fault_queue = 0; post_fault_peak = 0; last_exceed = -1;
    qsizes = Array.make (max n 1) 0 }

let total_queued t = t.injected - t.delivered - t.lost

let note_injection t =
  t.injected <- t.injected + 1;
  if total_queued t > t.max_total_queue then t.max_total_queue <- total_queued t

let note_delivery t ~delay ~hops =
  t.delivered <- t.delivered + 1;
  t.delivery_rounds <- t.delivery_rounds + 1;
  t.delay_sum <- t.delay_sum +. float_of_int delay;
  if delay > t.max_delay then t.max_delay <- delay;
  if hops > t.max_hops then t.max_hops <- hops;
  Histogram.record t.delay_hist delay

(* A self-addressed packet is delivered at injection and never queued:
   injection and delivery are booked atomically, so [total_queued] never
   transiently includes it and the queue peaks stay untouched. *)
let note_self_injection t =
  t.injected <- t.injected + 1;
  note_delivery t ~delay:0 ~hops:0

let note_on_count t on =
  t.on_total <- t.on_total + on;
  if on > t.max_on then t.max_on <- on;
  if on > t.cap then t.cap_exceeded <- t.cap_exceeded + 1

let note_station_queue t size =
  if size > t.max_station_queue then t.max_station_queue <- size

let note_silence t = t.silent_rounds <- t.silent_rounds + 1
let note_collision t = t.collision_rounds <- t.collision_rounds + 1
let note_light t = t.light_rounds <- t.light_rounds + 1

let note_relay t = t.relay_rounds <- t.relay_rounds + 1

let note_control_bits t bits =
  t.control_bits_total <- t.control_bits_total + bits;
  if bits > t.control_bits_max then t.control_bits_max <- bits

let note_cap_exceeded t = t.cap_exceeded <- t.cap_exceeded + 1
let note_stranded t = t.stranded <- t.stranded + 1
let note_adoption_conflict t = t.adoption_conflicts <- t.adoption_conflicts + 1
let note_spurious_adoption t = t.spurious_adoptions <- t.spurious_adoptions + 1

(* Recovery is measured against the backlog just before the *first*
   fault: the run has recovered once the backlog is back at (or below)
   that baseline for good — a dip that is later exceeded again does not
   count, and a run ending above the baseline never recovered. *)
let note_fault t ~round =
  if t.first_fault_round < 0 then begin
    t.first_fault_round <- round;
    t.pre_fault_queue <- total_queued t;
    t.post_fault_peak <- t.pre_fault_queue
  end;
  t.last_fault_round <- round;
  let q = total_queued t in
  if q > t.post_fault_peak then t.post_fault_peak <- q

let note_crash t ~round ~lost =
  note_fault t ~round;
  t.crashes <- t.crashes + 1;
  t.lost <- t.lost + lost

let note_restart t ~round =
  note_fault t ~round;
  t.restarts <- t.restarts + 1

let note_jammed t ~round ~noise =
  note_fault t ~round;
  t.jammed_rounds <- t.jammed_rounds + 1;
  if noise then t.noise_rounds <- t.noise_rounds + 1

(* Closed-form account of [count] consecutive provably-silent rounds
   starting at [from_round], equivalent to per-round note_on_count +
   note_silence + end_round: nothing is injected, delivered or lost in the
   span, so [total_queued] is constant and one recovery check stands for
   every round (the last exceeding round is the span's last). The on-set
   aggregates come from the algorithm's closed-form [on_count_in]. *)
let skip_quiet t ~from_round ~count ~on_sum ~on_max ~cap_exceeded_rounds
    ~draining =
  if count > 0 then begin
    t.on_total <- t.on_total + on_sum;
    if on_max > t.max_on then t.max_on <- on_max;
    t.cap_exceeded <- t.cap_exceeded + cap_exceeded_rounds;
    t.silent_rounds <- t.silent_rounds + count;
    if draining then t.drain_rounds <- t.drain_rounds + count
    else t.rounds <- t.rounds + count;
    let q = total_queued t in
    if t.first_fault_round >= 0 then begin
      if q > t.post_fault_peak then t.post_fault_peak <- q;
      if q > t.pre_fault_queue then t.last_exceed <- from_round + count - 1
    end;
    let se = t.sample_every in
    let r = ref ((from_round + se - 1) / se * se) in
    while !r <= from_round + count - 1 do
      t.series_rev <- (!r, q) :: t.series_rev;
      r := !r + se
    done
  end

let end_round t ~round ~draining =
  if draining then t.drain_rounds <- t.drain_rounds + 1
  else t.rounds <- t.rounds + 1;
  if t.first_fault_round >= 0 then begin
    let q = total_queued t in
    if q > t.post_fault_peak then t.post_fault_peak <- q;
    if q > t.pre_fault_queue then t.last_exceed <- round
  end;
  if round mod t.sample_every = 0 then
    t.series_rev <- (round, total_queued t) :: t.series_rev

(* Replaying a recorded event stream drives the same collector the engine
   drives directly. Queue sizes are reconstructed from the packet-movement
   events: a packet enters its source's queue on injection, leaves the
   transmitter's on delivery or relay, and enters the relay's on adoption
   (a stranded packet returns whence it came — no net change). *)
let observe t ~round (ev : Mac_channel.Event.t) =
  match ev with
  | Injected { src; dst; _ } ->
    if src = dst then
      (* Delivered-at-injection: the Delivered event that follows books
         the delivery, so only the injection count moves here — exactly
         what [note_self_injection] does live. *)
      t.injected <- t.injected + 1
    else begin
      note_injection t;
      t.qsizes.(src) <- t.qsizes.(src) + 1;
      note_station_queue t t.qsizes.(src)
    end
  | Delivered { from_; delay; hops; _ } ->
    if hops > 0 then t.qsizes.(from_) <- t.qsizes.(from_) - 1;
    note_delivery t ~delay ~hops
  | Relayed { from_; relay; _ } ->
    t.qsizes.(from_) <- t.qsizes.(from_) - 1;
    t.qsizes.(relay) <- t.qsizes.(relay) + 1;
    note_relay t;
    note_station_queue t t.qsizes.(relay)
  | Silence -> note_silence t
  | Collision _ -> note_collision t
  | Heard { bits; light; _ } ->
    note_control_bits t bits;
    if light then note_light t
  | Stranded _ -> note_stranded t
  | Cap_exceeded _ -> note_cap_exceeded t
  | Adoption_conflict _ -> note_adoption_conflict t
  | Spurious_adoption _ -> note_spurious_adoption t
  | Round_end { on_count; draining } ->
    (* note_on_count minus the cap check: cap violations replay through
       the explicit Cap_exceeded events. *)
    t.on_total <- t.on_total + on_count;
    if on_count > t.max_on then t.max_on <- on_count;
    end_round t ~round ~draining
  | Station_crashed { station; lost } ->
    t.qsizes.(station) <- t.qsizes.(station) - lost;
    note_crash t ~round ~lost
  | Station_restarted _ -> note_restart t ~round
  | Round_jammed { noise; _ } -> note_jammed t ~round ~noise
  | Switched_on _ | Switched_off _ | Transmit _ | Telemetry _ -> ()

type live = {
  live_injected : int;
  live_delivered : int;
  live_total_queued : int;
  live_max_total_queue : int;
  live_max_station_queue : int;
  live_collision_rounds : int;
  live_jammed_rounds : int;
  live_crashes : int;
  live_station_rounds : int;
  live_lost : int;
}

let live_stats t =
  { live_injected = t.injected; live_delivered = t.delivered;
    live_total_queued = total_queued t;
    live_max_total_queue = t.max_total_queue;
    live_max_station_queue = t.max_station_queue;
    live_collision_rounds = t.collision_rounds;
    live_jammed_rounds = t.jammed_rounds; live_crashes = t.crashes;
    live_station_rounds = t.on_total; live_lost = t.lost }

let live_delay_histogram t = t.delay_hist

(* The collector is pure data (scalars, arrays, lists — no closures), so a
   Marshal round-trip is an exact deep copy; checkpoints rely on this. *)
let copy (t : t) : t = Marshal.from_string (Marshal.to_string t []) 0

let finalize t ~final_round ~max_queued_age =
  let total_rounds = t.rounds + t.drain_rounds in
  (* Always sample the final backlog: with sample_every > 1 the series could
     otherwise end up to sample_every-1 rounds short, cutting off the
     drained tail from plots. [final_round] is the count of executed rounds,
     so the last executed round is [final_round - 1]; idempotent if that
     round was already sampled. *)
  (match t.series_rev with
  | (r, _) :: _ when r >= final_round - 1 -> ()
  | _ ->
    if final_round > 0 then
      t.series_rev <- (final_round - 1, total_queued t) :: t.series_rev);
  { algorithm = t.algorithm;
    adversary = t.adversary;
    n = t.n;
    k = t.k;
    rounds = t.rounds;
    drain_rounds = t.drain_rounds;
    injected = t.injected;
    delivered = t.delivered;
    undelivered = t.injected - t.delivered;
    max_delay = t.max_delay;
    mean_delay =
      (if t.delivered = 0 then 0.0 else t.delay_sum /. float_of_int t.delivered);
    p99_delay = Histogram.percentile t.delay_hist 0.99;
    delay_histogram = Array.of_list (Histogram.buckets t.delay_hist);
    max_queued_age;
    max_total_queue = t.max_total_queue;
    final_total_queue = total_queued t;
    max_station_queue = t.max_station_queue;
    queue_series = Array.of_list (List.rev t.series_rev);
    energy_cap = t.cap;
    max_on = t.max_on;
    mean_on =
      (if total_rounds = 0 then 0.0
       else float_of_int t.on_total /. float_of_int total_rounds);
    station_rounds = t.on_total;
    silent_rounds = t.silent_rounds;
    light_rounds = t.light_rounds;
    delivery_rounds = t.delivery_rounds;
    relay_rounds = t.relay_rounds;
    collision_rounds = t.collision_rounds;
    max_hops = t.max_hops;
    control_bits_total = t.control_bits_total;
    control_bits_max = t.control_bits_max;
    violations =
      { cap_exceeded = t.cap_exceeded;
        stranded = t.stranded;
        adoption_conflicts = t.adoption_conflicts;
        spurious_adoptions = t.spurious_adoptions };
    faults =
      { crashes = t.crashes;
        restarts = t.restarts;
        jammed_rounds = t.jammed_rounds;
        noise_rounds = t.noise_rounds;
        lost_to_crash = t.lost;
        last_fault_round = t.last_fault_round;
        pre_fault_queue = (if t.first_fault_round < 0 then 0 else t.pre_fault_queue);
        post_fault_peak_queue = t.post_fault_peak;
        recovery_rounds =
          (if t.last_fault_round >= 0 && total_queued t <= t.pre_fault_queue
           then
             let back =
               if t.last_exceed >= t.last_fault_round then t.last_exceed + 1
               else t.last_fault_round
             in
             back - t.last_fault_round
           else -1) } }
