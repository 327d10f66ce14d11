(* Ablation tests: each removed mechanism must visibly fail (or visibly not
   matter) exactly as EXPERIMENTS.md claims. These assert the headline
   verdicts of the ablation figures' quick-scale points, and run A3
   through the figures catalog. *)

open Helpers

let check_bool = Alcotest.(check bool)

(* ---- A1: k-Cycle delta ---- *)

let test_delta_scale_changes_delta () =
  let base = Mac_routing.Cycle_groups.make ~n:12 ~k:4 () in
  let half = Mac_routing.Cycle_groups.make ~delta_scale:0.5 ~n:12 ~k:4 () in
  let double = Mac_routing.Cycle_groups.make ~delta_scale:2.0 ~n:12 ~k:4 () in
  Alcotest.(check int) "half" (base.Mac_routing.Cycle_groups.delta / 2)
    half.Mac_routing.Cycle_groups.delta;
  Alcotest.(check int) "double" (base.Mac_routing.Cycle_groups.delta * 2)
    double.Mac_routing.Cycle_groups.delta

let test_delta_minimum_one () =
  let tiny = Mac_routing.Cycle_groups.make ~delta_scale:0.0001 ~n:12 ~k:4 () in
  Alcotest.(check int) "at least one round" 1 tiny.Mac_routing.Cycle_groups.delta

let test_scaled_k_cycle_still_routes () =
  List.iter
    (fun delta_scale ->
      let s =
        run
          ~algorithm:(Mac_routing.K_cycle.algorithm_scaled ~delta_scale ~n:8 ~k:3)
          ~n:8 ~k:3 ~rate:0.1 ~burst:2.0
          ~pattern:(Mac_adversary.Pattern.uniform ~n:8 ~seed:61)
          ~rounds:30_000 ~drain:30_000 ()
      in
      assert_clean (Printf.sprintf "delta x%g" delta_scale) s;
      assert_delivered_all "scaled" s)
    [ 0.25; 4.0 ]

(* ---- A2: Orchestra big threshold ---- *)

let run_orchestra algorithm pattern =
  run ~algorithm ~check_schedule:false ~n:8 ~k:3 ~rate:1.0 ~burst:4.0 ~pattern
    ~rounds:60_000 ~drain:0 ()

let test_never_big_breaks_flood () =
  let algorithm =
    Mac_routing.Orchestra.with_big_threshold ~name:"orchestra-neverbig"
      (fun ~n:_ -> max_int)
  in
  let s = run_orchestra algorithm (Mac_adversary.Pattern.flood ~n:8 ~victim:3) in
  check_bool "flood breaks without move-big-to-front" true (is_unstable s);
  assert_clean "never big" s

let test_paper_threshold_survives_flood () =
  let s =
    run_orchestra (module Mac_routing.Orchestra)
      (Mac_adversary.Pattern.flood ~n:8 ~victim:3)
  in
  check_bool "paper threshold stable" true (is_stable s)

let test_eager_threshold_breaks_uniform () =
  let algorithm =
    Mac_routing.Orchestra.with_big_threshold ~name:"orchestra-eager"
      (fun ~n -> n)
  in
  let s = run_orchestra algorithm (Mac_adversary.Pattern.uniform ~n:8 ~seed:63) in
  check_bool "eager threshold thrashes under uniform traffic" true (is_unstable s)

(* ---- A3: k-Subsets allocation ---- *)

let run_subsets allocation =
  run
    ~algorithm:(Mac_routing.K_subsets.algorithm ~allocation ~n:6 ~k:3 ())
    ~n:6 ~k:3
    ~rate:(Mac_experiments.Bounds.k_subsets_rate ~n:6 ~k:3)
    ~burst:4.0
    ~pattern:(Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
    ~rounds:80_000 ~drain:0 ()

let test_balanced_stable_at_threshold () =
  check_bool "balanced stable" true (is_stable (run_subsets `Balanced))

let test_first_fit_unstable_at_threshold () =
  check_bool "first-fit drowns" true (is_unstable (run_subsets `First_fit))

(* ---- catalog plumbing ---- *)

let test_catalog_runs_quick () =
  List.iter
    (fun ((f : Mac_experiments.Figures.t),
          (s : Mac_experiments.Figures.supervised)) ->
      check_bool (f.id ^ " rows") true
        (String.length (Mac_sim.Report.to_string s.report) > 0);
      check_bool (f.id ^ " outcomes") true (s.outcomes <> []);
      check_bool (f.id ^ " has no failures") true (s.failures = []))
    (Mac_experiments.Figures.run ~scale:`Quick
       [ Mac_experiments.Figures.allocation ])

let () =
  Alcotest.run "ablations"
    [ ("A1-delta",
       [ Alcotest.test_case "scale arithmetic" `Quick test_delta_scale_changes_delta;
         Alcotest.test_case "minimum 1" `Quick test_delta_minimum_one;
         Alcotest.test_case "scaled still routes" `Slow test_scaled_k_cycle_still_routes ]);
      ("A2-big-threshold",
       [ Alcotest.test_case "never-big breaks flood" `Slow test_never_big_breaks_flood;
         Alcotest.test_case "paper survives flood" `Slow test_paper_threshold_survives_flood;
         Alcotest.test_case "eager breaks uniform" `Slow test_eager_threshold_breaks_uniform ]);
      ("A3-allocation",
       [ Alcotest.test_case "balanced stable" `Slow test_balanced_stable_at_threshold;
         Alcotest.test_case "first-fit unstable" `Slow test_first_fit_unstable_at_threshold ]);
      ("catalog", [ Alcotest.test_case "quick scale" `Slow test_catalog_runs_quick ]) ]
