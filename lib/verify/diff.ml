open Mac_channel
module Scenario = Mac_experiments.Scenario

type mismatch = { what : string; engine : string; oracle : string }

type verdict = {
  id : string;
  events : int;
  mismatches : mismatch list;
}

let agrees v = v.mismatches = []

let pp_verdict ppf v =
  if agrees v then
    Format.fprintf ppf "%s: ok (%d events)" v.id v.events
  else begin
    Format.fprintf ppf "@[<v>%s: %d divergence(s)" v.id (List.length v.mismatches);
    List.iter
      (fun m ->
        Format.fprintf ppf "@,  %s: engine=%s oracle=%s" m.what m.engine m.oracle)
      v.mismatches;
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* Running both sides. *)

type 'a outcome = Finished of 'a | Raised of string

(* The oracle's terms: violations are counted, not raised, and the
   schedule is not cross-checked. *)
let config spec =
  { (Scenario.config spec) with strict = false; check_schedule = false }

(* The engine on [spec] under [config], recording its event stream. *)
let engine_side ?(with_sink = true) spec (config : Mac_sim.Engine.config) =
  let events_rev = ref [] in
  let sink =
    Mac_sim.Sink.make (fun ~round ev -> events_rev := (round, ev) :: !events_rev)
  in
  let config =
    { config with sink = (if with_sink then Some sink else None) }
  in
  let outcome =
    try Finished (Scenario.simulate ~config spec)
    with Mac_sim.Engine.Protocol_violation msg -> Raised msg
  in
  (outcome, List.rev !events_rev)

let oracle_side (r : Scenario.spec) =
  try
    let digest, events =
      Oracle.run ~algorithm:r.algorithm ~n:r.n ~k:r.k ~rate:r.rate
        ~burst:r.burst ~pacing:r.pacing ~pattern:(r.pattern ()) ~rounds:r.rounds
        ~drain:r.drain ~strict:false ?faults:r.faults ()
    in
    (Finished digest, events)
  with Oracle.Violation msg -> (Raised msg, [])

(* ------------------------------------------------------------------ *)
(* Comparison. *)

let fmt_float f = Printf.sprintf "%h" f

let compare_summary (s : Mac_sim.Metrics.summary) (d : Oracle.digest) =
  let acc = ref [] in
  let int what a b =
    if a <> b then
      acc := { what; engine = string_of_int a; oracle = string_of_int b } :: !acc
  in
  (* Float fields are compared bit-for-bit: both sides accumulate in the
     same order, so any difference is a real drift. *)
  let flt what a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      acc := { what; engine = fmt_float a; oracle = fmt_float b } :: !acc
  in
  int "rounds" s.rounds d.rounds;
  int "drain_rounds" s.drain_rounds d.drain_rounds;
  int "injected" s.injected d.injected;
  int "delivered" s.delivered d.delivered;
  int "undelivered" s.undelivered d.undelivered;
  int "max_delay" s.max_delay d.max_delay;
  flt "mean_delay" s.mean_delay d.mean_delay;
  int "max_queued_age" s.max_queued_age d.max_queued_age;
  int "max_total_queue" s.max_total_queue d.max_total_queue;
  int "final_total_queue" s.final_total_queue d.final_total_queue;
  int "max_station_queue" s.max_station_queue d.max_station_queue;
  int "energy_cap" s.energy_cap d.energy_cap;
  int "max_on" s.max_on d.max_on;
  flt "mean_on" s.mean_on d.mean_on;
  int "station_rounds" s.station_rounds d.station_rounds;
  int "silent_rounds" s.silent_rounds d.silent_rounds;
  int "light_rounds" s.light_rounds d.light_rounds;
  int "delivery_rounds" s.delivery_rounds d.delivery_rounds;
  int "relay_rounds" s.relay_rounds d.relay_rounds;
  int "collision_rounds" s.collision_rounds d.collision_rounds;
  int "max_hops" s.max_hops d.max_hops;
  int "control_bits_total" s.control_bits_total d.control_bits_total;
  int "control_bits_max" s.control_bits_max d.control_bits_max;
  int "cap_exceeded" s.violations.cap_exceeded d.cap_exceeded;
  int "stranded" s.violations.stranded d.stranded;
  int "adoption_conflicts" s.violations.adoption_conflicts d.adoption_conflicts;
  int "spurious_adoptions" s.violations.spurious_adoptions d.spurious_adoptions;
  int "crashes" s.faults.crashes d.crashes;
  int "restarts" s.faults.restarts d.restarts;
  int "jammed_rounds" s.faults.jammed_rounds d.jammed_rounds;
  int "noise_rounds" s.faults.noise_rounds d.noise_rounds;
  int "lost_to_crash" s.faults.lost_to_crash d.lost_to_crash;
  int "last_fault_round" s.faults.last_fault_round d.last_fault_round;
  int "pre_fault_queue" s.faults.pre_fault_queue d.pre_fault_queue;
  int "post_fault_peak_queue" s.faults.post_fault_peak_queue
    d.post_fault_peak_queue;
  int "recovery_rounds" s.faults.recovery_rounds d.recovery_rounds;
  List.rev !acc

let fmt_event (round, ev) = Printf.sprintf "r%d %s" round (Event.to_string ev)

let compare_events engine_events oracle_events =
  let rec go i es os =
    match (es, os) with
    | [], [] -> None
    | e :: es', o :: os' ->
      if e = o then go (i + 1) es' os'
      else
        Some
          { what = Printf.sprintf "event[%d]" i;
            engine = fmt_event e;
            oracle = fmt_event o }
    | e :: _, [] ->
      Some
        { what = Printf.sprintf "event[%d]" i;
          engine = fmt_event e;
          oracle = "<stream ended>" }
    | [], o :: _ ->
      Some
        { what = Printf.sprintf "event[%d]" i;
          engine = "<stream ended>";
          oracle = fmt_event o }
  in
  go 0 engine_events oracle_events

let run_pair (spec : Scenario.spec) =
  let e_outcome, e_events = engine_side spec (config spec) in
  let o_outcome, o_events = oracle_side spec in
  let events = max (List.length e_events) (List.length o_events) in
  let mismatches =
    match (e_outcome, o_outcome) with
    | Finished s, Finished d -> (
      let fields = compare_summary s d in
      match compare_events e_events o_events with
      | None -> fields
      | Some m -> fields @ [ m ])
    | Raised e, Raised o ->
      if e = o then []
      else [ { what = "exception"; engine = e; oracle = o } ]
    | Finished _, Raised o ->
      [ { what = "exception"; engine = "<finished>"; oracle = o } ]
    | Raised e, Finished _ ->
      [ { what = "exception"; engine = e; oracle = "<finished>" } ]
  in
  { id = spec.id; events; mismatches }

let run_pairs ?jobs specs =
  Scenario.run_batch ?jobs (List.map (fun spec () -> run_pair spec) specs)

(* ------------------------------------------------------------------ *)
(* Random configurations. *)

(* Indexed by the generator's first draw: a registry name and its draw of
   (n, k, algorithm seed) inside the algorithm's bounds. Keep the draws
   and their order: a seed must name the same configuration in every
   version. The algorithm values are stateless (per-station state is
   created inside each run), so engine and oracle can share one value. *)
let algorithm_draws =
  let pick_nk ~nmin ~nmax ~kmax_of rng =
    let n = nmin + Rng.int rng (nmax - nmin + 1) in
    let kmax = kmax_of n in
    let k = 2 + Rng.int rng (max 1 (kmax - 1)) in
    (n, min k kmax)
  in
  let below_n ~nmin ~nmax rng =
    let n, k = pick_nk ~nmin ~nmax ~kmax_of:(fun n -> n - 1) rng in
    (n, k, 0)
  in
  let k2 rng = (3 + Rng.int rng 6, 2, 0) in
  (* The broadcast family runs all stations switched on (required_cap =
     n), so the supply cap is pinned to n. *)
  let all_on rng =
    let n = 2 + Rng.int rng 7 in
    (n, n, 0)
  in
  [| ("orchestra", fun rng -> (3 + Rng.int rng 6, 3, 0));
     ("k-cycle", below_n ~nmin:4 ~nmax:10);
     ("k-subsets", below_n ~nmin:4 ~nmax:7);
     ("k-subsets-rrw", below_n ~nmin:4 ~nmax:7);
     ("k-clique", below_n ~nmin:4 ~nmax:8);
     ( "random-leader",
       fun rng ->
         let n, k = pick_nk ~nmin:3 ~nmax:9 ~kmax_of:Fun.id rng in
         (n, k, Rng.int rng 1000) );
     ("count-hop", k2);
     ("adjust-window", k2);
     ( "pair-tdma",
       fun rng ->
         let n = 3 + Rng.int rng 8 in
         (n, 2 + Rng.int rng 3, 0) );
     ("rrw", all_on);
     ("of-rrw", all_on);
     ("mbtf", all_on);
     ("fs-tree", all_on);
     ("ack-rr", all_on);
     ( "backoff",
       fun rng ->
         let n, k, _ = all_on rng in
         (n, k, Rng.int rng 1000) ) |]

let registered ?seed name ~n ~k =
  match Mac_experiments.Registry.algorithm ?seed name ~n ~k with
  | Ok a -> a
  | Error msg -> invalid_arg ("Diff: " ^ msg)

(* A pattern maker: every random draw happens before it is built, so
   each call constructs the same pattern with fresh state. *)
let build_pattern rng ~n =
  let case = Rng.int rng 7 in
  let seed = Rng.int rng 10_000 in
  let a = Rng.int rng n in
  let b = (a + 1 + Rng.int rng (n - 1)) mod n in
  let bias = 0.25 +. (0.5 *. float_of_int (Rng.int rng 3) /. 2.0) in
  let busy = 5 + Rng.int rng 20 in
  let idle = 5 + Rng.int rng 20 in
  fun () ->
    match case with
    | 0 -> Mac_adversary.Pattern.uniform ~n ~seed
    | 1 -> Mac_adversary.Pattern.flood ~n ~victim:a
    | 2 -> Mac_adversary.Pattern.pair_flood ~src:a ~dst:b
    | 3 -> Mac_adversary.Pattern.round_robin ~n
    | 4 ->
      (* keep both destinations distinct from the source [a] *)
      let e = (b + 1) mod n in
      let dst_even = if e = a then (e + 1) mod n else e in
      Mac_adversary.Pattern.alternating ~src:a ~dst_odd:b ~dst_even
    | 5 -> Mac_adversary.Pattern.hotspot ~n ~seed ~hot:a ~bias
    | 6 ->
      Mac_adversary.Pattern.duty_cycle ~busy ~idle
        (Mac_adversary.Pattern.uniform ~n ~seed)
    | _ -> assert false

(* Everything a configuration draws after its algorithm — traffic,
   horizon, faults, the pattern. *)
let draw_spec rng ~tag ~seed ~n ~k ~algorithm =
  let den = 1 + Rng.int rng 12 in
  let num = 1 + Rng.int rng den in
  let rate = Qrat.make num den in
  let burst =
    Qrat.add (Qrat.of_int (1 + Rng.int rng 4)) (Qrat.make 1 (2 + Rng.int rng 6))
  in
  let pacing =
    match Rng.int rng 3 with
    | 0 -> Mac_adversary.Adversary.Greedy
    | 1 -> Mac_adversary.Adversary.Paced { burst_at = None }
    | _ -> Mac_adversary.Adversary.Paced { burst_at = Some (Rng.int rng 200) }
  in
  let rounds = 200 + Rng.int rng 1100 in
  let drain = if Rng.bool rng then rounds / 2 else 0 in
  let faults =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 ->
      Some
        (Mac_faults.Fault_plan.random ~seed:(Rng.int rng 10_000) ~n ~rounds
           ~jam_rate:0.01 ~noise_rate:0.005 ())
    | _ ->
      Some
        (Mac_faults.Fault_plan.random ~seed:(Rng.int rng 10_000) ~n ~rounds
           ~crash_rate:0.002 ~jam_rate:0.005
           ~restart_after:(if Rng.bool rng then 0 else 40)
           ~queue:(if Rng.bool rng then Mac_faults.Fault_plan.Retain
                   else Mac_faults.Fault_plan.Drop)
           ())
  in
  let pattern = build_pattern rng ~n in
  let id =
    Printf.sprintf "%s=%d %s n=%d k=%d rho=%s beta=%s r=%d" tag seed
      (pattern ()).Mac_adversary.Pattern.name n k (Qrat.to_string rate)
      (Qrat.to_string burst) rounds
  in
  Scenario.spec_q ~id ~algorithm ~n ~k ~rate ~burst ~pattern ~pacing ~rounds
    ~drain ?faults ()

let random ~seed =
  let rng = Rng.create ~seed in
  let name, draw =
    algorithm_draws.(Rng.int rng (Array.length algorithm_draws))
  in
  let n, k, algo_seed = draw rng in
  let algorithm = registered ~seed:algo_seed name ~n ~k in
  draw_spec rng ~tag:"seed" ~seed ~n ~k ~algorithm

(* ------------------------------------------------------------------ *)
(* Sparse-vs-dense certification: the same configuration through the same
   engine in both modes must be bit-identical — summary (Marshal bytes),
   event stream, and every checkpoint snapshot (Marshal bytes). *)

(* The engine on [spec] in [mode]; [checkpoint_every > 0] collects each
   periodic snapshot's Marshal bytes. *)
let engine_mode_side spec ~mode ~with_sink ~checkpoint_every =
  let snaps_rev = ref [] in
  let outcome, events =
    engine_side ~with_sink spec
      { (config spec) with
        checkpoint_every;
        on_checkpoint =
          (if checkpoint_every > 0 then
             Some (fun s -> snaps_rev := Marshal.to_string s [] :: !snaps_rev)
           else None);
        mode }
  in
  (outcome, events, List.rev !snaps_rev)

let compare_summaries (a : Mac_sim.Metrics.summary)
    (b : Mac_sim.Metrics.summary) =
  let acc = ref [] in
  let int what x y =
    if x <> y then
      acc := { what; engine = string_of_int x; oracle = string_of_int y } :: !acc
  in
  let flt what x y =
    if Int64.bits_of_float x <> Int64.bits_of_float y then
      acc := { what; engine = fmt_float x; oracle = fmt_float y } :: !acc
  in
  int "rounds" a.rounds b.rounds;
  int "drain_rounds" a.drain_rounds b.drain_rounds;
  int "injected" a.injected b.injected;
  int "delivered" a.delivered b.delivered;
  int "max_delay" a.max_delay b.max_delay;
  flt "mean_delay" a.mean_delay b.mean_delay;
  int "p99_delay" a.p99_delay b.p99_delay;
  int "max_queued_age" a.max_queued_age b.max_queued_age;
  int "max_total_queue" a.max_total_queue b.max_total_queue;
  int "final_total_queue" a.final_total_queue b.final_total_queue;
  int "max_station_queue" a.max_station_queue b.max_station_queue;
  int "max_on" a.max_on b.max_on;
  flt "mean_on" a.mean_on b.mean_on;
  int "station_rounds" a.station_rounds b.station_rounds;
  int "silent_rounds" a.silent_rounds b.silent_rounds;
  int "light_rounds" a.light_rounds b.light_rounds;
  int "delivery_rounds" a.delivery_rounds b.delivery_rounds;
  int "relay_rounds" a.relay_rounds b.relay_rounds;
  int "collision_rounds" a.collision_rounds b.collision_rounds;
  int "cap_exceeded" a.violations.cap_exceeded b.violations.cap_exceeded;
  int "stranded" a.violations.stranded b.violations.stranded;
  int "crashes" a.faults.crashes b.faults.crashes;
  int "restarts" a.faults.restarts b.faults.restarts;
  int "jammed_rounds" a.faults.jammed_rounds b.faults.jammed_rounds;
  int "lost_to_crash" a.faults.lost_to_crash b.faults.lost_to_crash;
  int "recovery_rounds" a.faults.recovery_rounds b.faults.recovery_rounds;
  int "queue_series_len" (Array.length a.queue_series)
    (Array.length b.queue_series);
  (* The per-field diagnostics above are for readable verdicts; the byte
     compare is the actual equality (it also covers the histograms and the
     series contents). *)
  if
    !acc = []
    && Marshal.to_string a [] <> Marshal.to_string b []
  then
    acc :=
      [ { what = "summary.bytes"; engine = "<differs>"; oracle = "<differs>" } ];
  List.rev !acc

let compare_snapshots tag a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then
    [ { what = Printf.sprintf "%s.count" tag;
        engine = string_of_int la;
        oracle = string_of_int lb } ]
  else
    let rec go i xs ys =
      match (xs, ys) with
      | [], [] -> []
      | x :: xs', y :: ys' ->
        if String.equal x y then go (i + 1) xs' ys'
        else
          [ { what = Printf.sprintf "%s[%d].bytes" tag i;
              engine = Printf.sprintf "<%d bytes>" (String.length x);
              oracle = Printf.sprintf "<%d bytes>" (String.length y) } ]
      | _ -> assert false
    in
    go 0 a b

let certify_sparse (spec : Scenario.spec) =
  (* Three runs of the spec: dense with sink + checkpoints (the
     reference), sparse without a sink (skip-ahead armed) + checkpoints,
     sparse with a sink (sparse concrete iteration, exact event order). A
     cadence that is coprime-ish with typical schedules lands checkpoints
     mid-stretch. *)
  let checkpoint_every = max 1 (spec.rounds / 7) in
  let d_out, d_events, d_snaps =
    engine_mode_side spec ~mode:Mac_sim.Engine.Dense ~with_sink:true
      ~checkpoint_every
  in
  let s_out, _, s_snaps =
    engine_mode_side spec ~mode:Mac_sim.Engine.Sparse ~with_sink:false
      ~checkpoint_every
  in
  let se_out, se_events, _ =
    engine_mode_side spec ~mode:Mac_sim.Engine.Sparse ~with_sink:true
      ~checkpoint_every:0
  in
  let events = List.length d_events in
  let outcome_mismatch tag a b =
    match (a, b) with
    | Finished _, Finished _ -> []
    | Raised x, Raised y ->
      if String.equal x y then []
      else [ { what = tag ^ ".exception"; engine = x; oracle = y } ]
    | Finished _, Raised y ->
      [ { what = tag ^ ".exception"; engine = "<finished>"; oracle = y } ]
    | Raised x, Finished _ ->
      [ { what = tag ^ ".exception"; engine = x; oracle = "<finished>" } ]
  in
  let mismatches =
    match (d_out, s_out, se_out) with
    | Finished ds, Finished ss, Finished ses ->
      compare_summaries ds ss
      @ compare_snapshots "checkpoint" d_snaps s_snaps
      @ compare_summaries ses ds
      @ (match compare_events d_events se_events with
         | None -> []
         | Some m -> [ m ])
    | _ ->
      outcome_mismatch "sparse" d_out s_out
      @ outcome_mismatch "sparse+sink" d_out se_out
  in
  { id = spec.id ^ " [sparse-certify]"; events; mismatches }

(* Like [random] but pinned to a sparse-capable algorithm (pair-TDMA or
   the ack-based broadcast TDMA). *)
let random_sparse ~seed =
  let rng = Rng.create ~seed in
  let n = 3 + Rng.int rng 8 in
  let k, name =
    if Rng.bool rng then (2 + Rng.int rng 3, "pair-tdma") else (n, "ack-rr")
  in
  draw_spec rng ~tag:"sparse-seed" ~seed ~n ~k
    ~algorithm:(registered name ~n ~k)

let certify_sparse_batch ?jobs specs =
  Scenario.run_batch ?jobs (List.map (fun spec () -> certify_sparse spec) specs)
