open Mac_adversary
open Mac_channel

(* Result of a supervised figure run: the rendered table (successful
   points only), the successful outcomes in declaration order, and the
   per-point failures (label, error) that a [--keep-going] run reports
   instead of aborting. *)
type supervised = {
  report : Mac_sim.Report.t;
  outcomes : Scenario.outcome list;
  failures : (string * Mac_sim.Supervisor.error) list;
}

type t = {
  id : string;
  title : string;
  run :
    ?observe:Scenario.observer ->
    ?telemetry:Mac_sim.Telemetry.Fleet.t ->
    ?jobs:int ->
    ?policy:Mac_sim.Supervisor.policy ->
    ?on_event:(Mac_sim.Supervisor.event -> unit) ->
    scale:[ `Quick | `Full ] ->
    unit ->
    supervised;
}

let fmt = Mac_sim.Report.fmt_float

(* Figure operating points are exact rationals; decimal literals go
   through [Qrat.of_float] (so [q 0.8] is exactly 4/5) and
   threshold-derived points multiply the exact [Bounds._q] thresholds. *)
let q = Qrat.of_float

let fmt_q r = fmt (Qrat.to_float r)

let failures results =
  List.filter_map
    (function lbl, Error e -> Some (lbl, e) | _, Ok _ -> None)
    results

(* Each figure declares its plot points as (spec, row-of-outcome) pairs;
   the specs fan out over the supervisor, and the table keeps its
   declaration order whatever the parallel completion order was. *)
let figure ~id ~title ~header points =
  let run ?observe ?telemetry ?jobs ?policy ?on_event ~scale () =
    let results =
      Scenario.sweep ?jobs ?policy ?on_event
        ~label:(fun ((spec : Scenario.spec), _) -> spec.id)
        (points ~scale)
        (fun (spec, row) ~heartbeat ->
          let o = Scenario.run ?observe ?telemetry ~heartbeat spec in
          (row o, o))
    in
    let report = Mac_sim.Report.create ~header in
    let outcomes =
      List.filter_map
        (function
          | _, Ok (r, o) ->
            Mac_sim.Report.add_row report r;
            Some o
          | _, Error _ -> None)
        results
    in
    { report; outcomes; failures = failures results }
  in
  { id; title; run }

(* ------------------------------------------------------------------ *)
(* F1: stability frontier. *)

let frontier_points ~scale =
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:150_000 in
  let aw_rounds = Scenario.scaled ~scale ~quick:80_000 ~full:250_000 in
  let points = ref [] in
  let point ~row_algo ~algorithm ~n ~k ~threshold ~rho ~pattern ~rounds =
    let id =
      Printf.sprintf "frontier/%s@%.4f" row_algo (Qrat.to_float rho)
    in
    let spec =
      Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:(Qrat.of_int 2)
        ~pattern ~rounds ~drain:0 ()
    in
    let row (o : Scenario.outcome) =
      let s = o.Scenario.summary and st = o.Scenario.stability in
      [ row_algo; string_of_int n; string_of_int k;
        fmt_q threshold; fmt_q rho;
        fmt (Qrat.to_float rho /. Qrat.to_float threshold);
        Mac_sim.Stability.verdict_to_string st.Mac_sim.Stability.verdict;
        fmt st.Mac_sim.Stability.slope;
        string_of_int s.Mac_sim.Metrics.max_total_queue ]
    in
    points := (spec, row) :: !points
  in
  let add (() : unit) = () in
  (* Orchestra: stable all the way to rate 1. *)
  let n = 8 in
  add (point ~row_algo:"orchestra" ~algorithm:(module Mac_routing.Orchestra)
         ~n ~k:3 ~threshold:Qrat.one ~rho:(q 0.9)
         ~pattern:(fun () -> Pattern.flood ~n ~victim:2) ~rounds);
  add (point ~row_algo:"orchestra" ~algorithm:(module Mac_routing.Orchestra)
         ~n ~k:3 ~threshold:Qrat.one ~rho:Qrat.one
         ~pattern:(fun () -> Pattern.flood ~n ~victim:2) ~rounds);
  (* Count-Hop: universal below 1, breaks at 1. *)
  List.iter
    (fun rho ->
      add (point ~row_algo:"count-hop" ~algorithm:(module Mac_routing.Count_hop)
             ~n ~k:2 ~threshold:Qrat.one ~rho:(q rho)
             ~pattern:(fun () -> Pattern.flood ~n ~victim:2) ~rounds))
    [ 0.8; 0.95; 1.0 ];
  (* Adjust-Window: same frontier with plain packets. *)
  List.iter
    (fun rho ->
      add (point ~row_algo:"adjust-window" ~algorithm:(module Mac_routing.Adjust_window)
             ~n:4 ~k:2 ~threshold:Qrat.one ~rho:(q rho)
             ~pattern:(fun () -> Pattern.flood ~n:4 ~victim:2)
             ~rounds:aw_rounds))
    [ 0.5; 1.0 ];
  (* k-Cycle: guaranteed below (k-1)/(n-1); impossible above k/n; the strip
     between the two is the open territory the paper leaves. *)
  let n = 12 and k = 4 in
  let algorithm = Mac_routing.K_cycle.algorithm ~n ~k in
  let thr = Bounds.k_cycle_rate_q ~n ~k in
  List.iter
    (fun frac ->
      add (point ~row_algo:"k-cycle" ~algorithm ~n ~k ~threshold:thr
             ~rho:(Qrat.mul (q frac) thr)
             ~pattern:(fun () -> Pattern.flood ~n ~victim:5) ~rounds))
    [ 0.6; 0.95; 1.05 ];
  let schedule = Option.get (Scenario.schedule_of algorithm ~n ~k) in
  let duty = Saboteur.min_duty ~n ~horizon:30_000 ~schedule in
  add (point ~row_algo:"k-cycle" ~algorithm ~n ~k ~threshold:thr
         ~rho:(Qrat.mul (Qrat.make 6 5) (Bounds.oblivious_rate_upper_q ~n ~k))
         ~pattern:duty.Saboteur.pattern ~rounds);
  (* k-Clique: bounded below 1/m, drowned by a pair flood above. *)
  let algorithm = Mac_routing.K_clique.algorithm ~n ~k in
  let thr = Bounds.k_clique_stable_rate_q ~n ~k in
  List.iter
    (fun frac ->
      add (point ~row_algo:"k-clique" ~algorithm ~n ~k ~threshold:thr
             ~rho:(Qrat.mul (q frac) thr)
             ~pattern:(fun () -> Pattern.pair_flood ~src:1 ~dst:2) ~rounds))
    [ 0.6; 0.9; 1.25 ];
  (* k-Subsets: the optimal oblivious-direct frontier. *)
  let n = 8 and k = 3 in
  let algorithm = Mac_routing.K_subsets.algorithm ~n ~k () in
  let thr = Bounds.k_subsets_rate_q ~n ~k in
  List.iter
    (fun frac ->
      add (point ~row_algo:"k-subsets" ~algorithm ~n ~k ~threshold:thr
             ~rho:(Qrat.mul (q frac) thr)
             ~pattern:(fun () -> Pattern.pair_flood ~src:1 ~dst:2) ~rounds))
    [ 0.9; 1.0 ];
  let schedule = Option.get (Scenario.schedule_of algorithm ~n ~k) in
  let pair = Saboteur.min_pair ~n ~horizon:(20 * Mac_routing.Combi.binomial n k) ~schedule in
  add (point ~row_algo:"k-subsets" ~algorithm ~n ~k ~threshold:thr
         ~rho:(Qrat.mul (Qrat.make 5 4) thr) ~pattern:pair.Saboteur.pattern
         ~rounds);
  (* Pair-TDMA baseline: a one-directional flood sees only the pair's own
     slot, 1/(n(n-1)) of rounds — half the optimal k = 2 rate that
     k-Subsets extracts by letting both directions share threads. *)
  let thr = Qrat.make 1 (n * (n - 1)) in
  List.iter
    (fun frac ->
      add (point ~row_algo:"pair-tdma" ~algorithm:(module Mac_routing.Pair_tdma)
             ~n ~k:2 ~threshold:thr ~rho:(Qrat.mul (q frac) thr)
             ~pattern:(fun () -> Pattern.pair_flood ~src:1 ~dst:2) ~rounds))
    [ 0.9; 1.3 ];
  List.rev !points

let frontier =
  figure ~id:"F1.frontier"
    ~title:"Stability frontier: verdict around each algorithm's threshold"
    ~header:
      [ "algorithm"; "n"; "k"; "threshold"; "rho"; "rho/thr";
        "verdict"; "slope"; "max-queue" ]
    frontier_points

(* ------------------------------------------------------------------ *)
(* F2: latency scaling with n. *)

let scaling_points ~scale =
  let points = ref [] in
  let point ~row_algo ~algorithm ~n ~k ~rho ~bound ~pattern ~rounds =
    let id = Printf.sprintf "scaling/%s/n=%d" row_algo n in
    let spec =
      Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:(Qrat.of_int 2)
        ~pattern ~rounds ()
    in
    let row (o : Scenario.outcome) =
      let measured = Scenario.worst_delay o.Scenario.summary in
      [ row_algo; string_of_int n; string_of_int k; fmt_q rho;
        fmt measured; fmt bound; Mac_sim.Report.fmt_ratio ~measured ~bound ]
    in
    points := (spec, row) :: !points
  in
  let ns = Scenario.scaled ~scale ~quick:[ 4; 6 ] ~full:[ 4; 6; 8; 10; 12 ] in
  List.iter
    (fun n ->
      point ~row_algo:"count-hop" ~algorithm:(module Mac_routing.Count_hop) ~n
        ~k:2 ~rho:(q 0.5)
        ~bound:(Bounds.count_hop_latency_impl ~n ~rho:0.5 ~beta:2.0)
        ~pattern:(fun () -> Pattern.uniform ~n ~seed:(200 + n))
        ~rounds:(Scenario.scaled ~scale ~quick:40_000 ~full:120_000))
    ns;
  let ns = Scenario.scaled ~scale ~quick:[ 7 ] ~full:[ 7; 9; 11; 13 ] in
  List.iter
    (fun n ->
      let rho = Qrat.mul (Qrat.make 1 2) (Bounds.k_cycle_rate_q ~n ~k:4) in
      point ~row_algo:"k-cycle" ~algorithm:(Mac_routing.K_cycle.algorithm ~n ~k:4)
        ~n ~k:4 ~rho ~bound:(Bounds.k_cycle_latency ~n ~beta:2.0)
        ~pattern:(fun () -> Pattern.uniform ~n ~seed:(300 + n))
        ~rounds:(Scenario.scaled ~scale ~quick:40_000 ~full:120_000))
    ns;
  let ns = Scenario.scaled ~scale ~quick:[ 6 ] ~full:[ 6; 8; 12 ] in
  List.iter
    (fun n ->
      let rho = Bounds.k_clique_latency_rate_q ~n ~k:4 in
      point ~row_algo:"k-clique" ~algorithm:(Mac_routing.K_clique.algorithm ~n ~k:4)
        ~n ~k:4 ~rho ~bound:(Bounds.k_clique_latency ~n ~k:4 ~beta:2.0)
        ~pattern:(fun () -> Pattern.uniform ~n ~seed:(400 + n))
        ~rounds:(Scenario.scaled ~scale ~quick:60_000 ~full:150_000))
    ns;
  (match scale with
   | `Quick -> ()
   | `Full ->
     List.iter
       (fun n ->
         point ~row_algo:"adjust-window" ~algorithm:(module Mac_routing.Adjust_window)
           ~n ~k:2 ~rho:(q 0.3)
           ~bound:(Bounds.adjust_window_latency_impl ~n ~rho:0.3 ~beta:2.0)
           ~pattern:(fun () -> Pattern.uniform ~n ~seed:(500 + n))
           ~rounds:(10 * Mac_routing.Adjust_window.initial_window ~n))
       [ 3; 4; 5 ]);
  List.rev !points

let scaling =
  figure ~id:"F2.scaling"
    ~title:"Latency scaling with n (measured worst delay vs instantiated bound)"
    ~header:[ "algorithm"; "n"; "k"; "rho"; "worst-delay"; "bound"; "ratio" ]
    scaling_points

(* ------------------------------------------------------------------ *)
(* F3: the latency-energy tradeoff across caps. *)

let energy_points ~scale =
  let n = 12 in
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:200_000 in
  let points = ref [] in
  let point ~row_algo ~algorithm ~k ~threshold =
    let rho = Qrat.mul (Qrat.make 1 2) threshold in
    let id = Printf.sprintf "energy/%s/k=%d" row_algo k in
    let spec =
      Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:(Qrat.of_int 2)
        ~pattern:(fun () -> Pattern.uniform ~n ~seed:(600 + k)) ~rounds ()
    in
    let row (o : Scenario.outcome) =
      let s = o.Scenario.summary in
      [ row_algo; string_of_int k; fmt_q threshold; fmt_q rho;
        fmt s.Mac_sim.Metrics.mean_on;
        fmt (Mac_sim.Metrics.energy_per_delivery s);
        fmt s.Mac_sim.Metrics.mean_delay;
        string_of_int s.Mac_sim.Metrics.max_delay ]
    in
    points := (spec, row) :: !points
  in
  (* Non-oblivious references at the same relative load: Orchestra needs
     only cap 3 for the throughput the always-on MBTF (cap n) achieves. *)
  point ~row_algo:"mbtf (always on)" ~algorithm:(module Mac_broadcast.Mbtf)
    ~k:n ~threshold:Qrat.one;
  point ~row_algo:"orchestra" ~algorithm:(module Mac_routing.Orchestra) ~k:3
    ~threshold:Qrat.one;
  point ~row_algo:"pair-tdma" ~algorithm:(module Mac_routing.Pair_tdma) ~k:2
    ~threshold:(Bounds.k_subsets_rate_q ~n ~k:2);
  let ks = Scenario.scaled ~scale ~quick:[ 4 ] ~full:[ 3; 4; 6; 8 ] in
  List.iter
    (fun k ->
      point ~row_algo:"k-cycle" ~algorithm:(Mac_routing.K_cycle.algorithm ~n ~k) ~k
        ~threshold:(Bounds.k_cycle_rate_q ~n ~k))
    ks;
  let ks = Scenario.scaled ~scale ~quick:[ 4 ] ~full:[ 2; 4; 6; 8 ] in
  List.iter
    (fun k ->
      point ~row_algo:"k-clique" ~algorithm:(Mac_routing.K_clique.algorithm ~n ~k)
        ~k ~threshold:(Bounds.k_clique_stable_rate_q ~n ~k))
    ks;
  List.rev !points

let energy =
  figure ~id:"F3.energy"
    ~title:"Latency-energy tradeoff at half the threshold rate (n=12)"
    ~header:
      [ "algorithm"; "k"; "threshold"; "rho"; "mean-on";
        "energy/delivery"; "mean-delay"; "max-delay" ]
    energy_points

(* ------------------------------------------------------------------ *)
(* F4: burstiness sensitivity. *)

let burst_points ~scale =
  let points = ref [] in
  let point ~row_algo ~algorithm ~n ~k ~rho ~beta ~bound ~pattern ~rounds ~drain
      ~metric =
    let id = Printf.sprintf "burst/%s/b=%g" row_algo (Qrat.to_float beta) in
    let spec =
      Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:beta ~pattern
        ~rounds ~drain ()
    in
    let row (o : Scenario.outcome) =
      let measured = metric o.Scenario.summary in
      [ row_algo; string_of_int n; fmt_q rho; fmt_q beta; fmt measured;
        fmt bound; Mac_sim.Report.fmt_ratio ~measured ~bound ]
    in
    points := (spec, row) :: !points
  in
  let betas =
    Scenario.scaled ~scale ~quick:[ 1.0; 32.0 ] ~full:[ 1.0; 8.0; 32.0; 128.0 ]
  in
  let n = 8 in
  List.iter
    (fun beta ->
      point ~row_algo:"count-hop" ~algorithm:(module Mac_routing.Count_hop) ~n
        ~k:2 ~rho:(q 0.8) ~beta:(q beta)
        ~bound:(Bounds.count_hop_latency_impl ~n ~rho:0.8 ~beta)
        ~pattern:(fun () -> Pattern.flood ~n ~victim:2)
        ~rounds:(Scenario.scaled ~scale ~quick:50_000 ~full:120_000)
        ~drain:60_000 ~metric:Scenario.worst_delay)
    betas;
  let n = 12 and k = 4 in
  let rho = Qrat.mul (Qrat.make 1 2) (Bounds.k_cycle_rate_q ~n ~k) in
  List.iter
    (fun beta ->
      point ~row_algo:"k-cycle" ~algorithm:(Mac_routing.K_cycle.algorithm ~n ~k)
        ~n ~k ~rho ~beta:(q beta) ~bound:(Bounds.k_cycle_latency ~n ~beta)
        ~pattern:(fun () -> Pattern.flood ~n ~victim:5)
        ~rounds:(Scenario.scaled ~scale ~quick:50_000 ~full:120_000)
        ~drain:60_000 ~metric:Scenario.worst_delay)
    betas;
  let n = 8 in
  List.iter
    (fun beta ->
      point ~row_algo:"orchestra(queues)" ~algorithm:(module Mac_routing.Orchestra)
        ~n ~k:3 ~rho:Qrat.one ~beta:(q beta)
        ~bound:(Bounds.orchestra_queue_bound ~n ~beta)
        ~pattern:(fun () -> Pattern.flood ~n ~victim:2)
        ~rounds:(Scenario.scaled ~scale ~quick:50_000 ~full:120_000)
        ~drain:0
        ~metric:(fun s -> float_of_int s.Mac_sim.Metrics.max_total_queue))
    betas;
  List.rev !points

let burst =
  figure ~id:"F4.burst"
    ~title:"Burstiness sensitivity (worst delay, or backlog for Orchestra)"
    ~header:[ "algorithm"; "n"; "rho"; "beta"; "measured"; "bound"; "ratio" ]
    burst_points

(* ------------------------------------------------------------------ *)
(* F5: what the paper's schedules buy — empirical frontiers of every
   oblivious discipline against the same dedicated pair flood, located by
   bisection, next to the random-schedule strawman. *)

let baselines_header =
  [ "discipline"; "theory stable <="; "theory unstable >";
    "empirical stable"; "empirical unstable" ]

let baselines_subjects ~n ~k =
  (* [theory_lo = None] marks the strawman with no guaranteed frontier. *)
  [ ("pair-tdma", (module Mac_routing.Pair_tdma : Mac_channel.Algorithm.S),
     Some (Qrat.make 1 (n * (n - 1))), Some (Qrat.make 1 (n * (n - 1))));
    ("random-leader", Mac_routing.Random_leader.algorithm ~n ~k (),
     None, Some (Bounds.k_subsets_rate_q ~n ~k));
    ("k-clique", Mac_routing.K_clique.algorithm ~n ~k,
     Some (Bounds.k_clique_stable_rate_q ~n ~k),
     Some (Bounds.k_subsets_rate_q ~n ~k));
    ("k-subsets", Mac_routing.K_subsets.algorithm ~n ~k (),
     Some (Bounds.k_subsets_rate_q ~n ~k),
     Some (Bounds.k_subsets_rate_q ~n ~k));
    ("k-cycle (indirect)", Mac_routing.K_cycle.algorithm ~n ~k,
     Some (Bounds.k_cycle_rate_q ~n ~k),
     Some (Bounds.oblivious_rate_upper_q ~n ~k)) ]

let baselines_brackets ~subjects ~n ~k ~rounds =
  ignore (n, k);
  List.map
    (fun (label, algorithm, _, theory_hi) ->
      let probe =
        Sweep.stability_probe_q ~algorithm ~n ~k
          ~pattern:(fun () -> Pattern.pair_flood ~src:1 ~dst:2)
          ~rounds ()
      in
      let hi0 =
        match theory_hi with
        | None -> Qrat.make 1 2
        | Some hi -> Qrat.min Qrat.one (Qrat.mul_int hi 2)
      in
      (label, Qrat.make 1 250, hi0, probe))
    subjects

(* A degenerate frontier keeps its row: the side the bracket never found
   reads "-". *)
let baselines_row (label, _, theory_lo, theory_hi) (f : Sweep.frontier) =
  let opt = function None -> "?" | Some r -> fmt_q r in
  let stable, unstable =
    match f with
    | Bracket (lo, hi) -> (fmt_q lo, fmt_q hi)
    | Stable_to_ceiling hi -> (fmt_q hi, "-")
    | Unstable_at_floor lo -> ("-", fmt_q lo)
  in
  [ label; opt theory_lo; opt theory_hi; stable; unstable ]

let baselines_run ?observe ?telemetry ?jobs ?policy ?on_event ~scale () =
  (* Bisection probes run thousands of throwaway points; observing them
     would swamp any sink, so F5 deliberately ignores the observer, and
     telemetry only counts probes on the fleet (no per-scenario files). *)
  ignore (observe : Scenario.observer option);
  let n = 8 and k = 3 in
  let rounds = Scenario.scaled ~scale ~quick:30_000 ~full:60_000 in
  let steps = Scenario.scaled ~scale ~quick:4 ~full:7 in
  let subjects = baselines_subjects ~n ~k in
  let located =
    Sweep.frontiers ?jobs ?policy ?on_event ?telemetry ~steps
      (baselines_brackets ~subjects ~n ~k ~rounds)
  in
  let report = Mac_sim.Report.create ~header:baselines_header in
  List.iter2
    (fun subject (_, outcome) ->
      match outcome with
      | Ok f -> Mac_sim.Report.add_row report (baselines_row subject f)
      | Error _ -> ())
    subjects located;
  { report; outcomes = []; failures = failures located }

let baselines =
  { id = "F5.baselines";
    title =
      "Empirical stability frontiers under a dedicated pair flood (n=8, k=3, bisection)";
    run = baselines_run }

(* ------------------------------------------------------------------ *)
(* Ablations: one mechanism of an algorithm swapped for a naive variant,
   rerun against the row's worst adversary. Each row is the point's own
   cells followed by the verdict, peak backlog, worst delay (counting
   packets still queued by their age) and mean delay. *)

let ablation_point ~id ~algorithm ~n ~k ~rho ~beta ~pattern ~rounds ~drain
    cells =
  let spec =
    Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:beta ~pattern
      ~rounds ~drain ()
  in
  let row (o : Scenario.outcome) =
    let s = o.Scenario.summary and st = o.Scenario.stability in
    cells
    @ [ Mac_sim.Stability.verdict_to_string st.Mac_sim.Stability.verdict;
        string_of_int s.Mac_sim.Metrics.max_total_queue;
        string_of_int
          (max s.Mac_sim.Metrics.max_delay s.Mac_sim.Metrics.max_queued_age);
        fmt s.Mac_sim.Metrics.mean_delay ]
  in
  (spec, row)

let ablation_header = [ "verdict"; "max-q"; "worst-delay"; "mean-delay" ]

(* A1: k-Cycle's activity-segment length, at half and 9/10 of its
   threshold. *)
let delta_points ~scale =
  let n = 12 and k = 4 in
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:150_000 in
  List.concat_map
    (fun (frac, load) ->
      let rho = Qrat.mul frac (Bounds.k_cycle_rate_q ~n ~k) in
      List.map
        (fun delta_scale ->
          ablation_point
            ~id:(Printf.sprintf "delta/%s/x%g" load delta_scale)
            ~algorithm:(Mac_routing.K_cycle.algorithm_scaled ~delta_scale ~n ~k)
            ~n ~k ~rho ~beta:(Qrat.of_int 2)
            ~pattern:(fun () -> Pattern.flood ~n ~victim:5)
            ~rounds ~drain:(rounds / 2)
            [ Printf.sprintf "%g x delta" delta_scale; load; fmt_q rho ])
        [ 0.125; 0.25; 1.0; 4.0 ])
    [ (Qrat.make 1 2, "half-rate"); (Qrat.make 9 10, "near-threshold") ]

let delta =
  figure ~id:"A1.delta"
    ~title:"k-Cycle activity segment: scaling the paper's delta (flood, n=12, k=4)"
    ~header:([ "delta"; "load"; "rho" ] @ ablation_header)
    delta_points

(* A2: Orchestra's big threshold at injection rate 1. *)
let big_threshold_points ~scale =
  let n = 8 in
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:200_000 in
  List.concat_map
    (fun (label, algorithm) ->
      List.map
        (fun (pname, pattern) ->
          ablation_point
            ~id:(Printf.sprintf "bigthr/%s/%s" label pname)
            ~algorithm ~n ~k:3 ~rho:Qrat.one ~beta:(Qrat.of_int 4) ~pattern
            ~rounds ~drain:0 [ label; pname ])
        [ ("flood", fun () -> Pattern.flood ~n ~victim:3);
          ("uniform", fun () -> Pattern.uniform ~n ~seed:71) ])
    [ ("eager (n)",
       Mac_routing.Orchestra.with_big_threshold ~name:"orchestra-eager"
         (fun ~n -> n));
      ("paper (n^2-1)", (module Mac_routing.Orchestra : Mac_channel.Algorithm.S));
      ("never big",
       Mac_routing.Orchestra.with_big_threshold ~name:"orchestra-neverbig"
         (fun ~n:_ -> max_int)) ]

let big_threshold =
  figure ~id:"A2.big-threshold"
    ~title:"Orchestra big-conductor threshold at rate 1 (n=8)"
    ~header:([ "threshold"; "pattern" ] @ ablation_header)
    big_threshold_points

(* A3: k-Subsets' thread allocation at the optimal rate. *)
let allocation_points ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:8 and k = 3 in
  let rounds = Scenario.scaled ~scale ~quick:80_000 ~full:250_000 in
  let rho = Bounds.k_subsets_rate_q ~n ~k in
  List.map
    (fun (label, allocation) ->
      ablation_point ~id:(Printf.sprintf "alloc/%s" label)
        ~algorithm:(Mac_routing.K_subsets.algorithm ~allocation ~n ~k ())
        ~n ~k ~rho ~beta:(Qrat.of_int 4)
        ~pattern:(fun () -> Pattern.pair_flood ~src:1 ~dst:2)
        ~rounds ~drain:0 [ label; fmt_q rho ])
    [ ("balanced (paper)", `Balanced); ("first-fit", `First_fit) ]

let allocation =
  figure ~id:"A3.allocation"
    ~title:"k-Subsets thread allocation at the optimal rate (pair flood, k=3)"
    ~header:([ "allocation"; "rho" ] @ ablation_header)
    allocation_points

let all =
  [ frontier; scaling; energy; burst; baselines; delta; big_threshold;
    allocation ]
