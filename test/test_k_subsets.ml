(* k-Subsets (§6): thread eligibility, balanced allocation, stability at the
   optimal oblivious-direct rate (Theorem 8), the RRW variant, and the
   Theorem-9 matching instability. *)

open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let algo ?discipline ~n ~k () = Mac_routing.K_subsets.algorithm ?discipline ~n ~k ()

let rate_for ~n ~k = Mac_experiments.Bounds.k_subsets_rate ~n ~k

let run_ks ?discipline ?(n = 6) ?(k = 3) ?rate ?(burst = 4.0) ?(rounds = 60_000)
    ?(drain = 30_000) pattern =
  let rate = match rate with Some r -> r | None -> rate_for ~n ~k in
  run ~algorithm:(algo ?discipline ~n ~k ()) ~n ~k ~rate ~burst ~pattern ~rounds
    ~drain ()

(* ---- thread structure ---- *)

let test_threads_for_counts () =
  (* C(n-2, k-2) threads carry each ordered pair *)
  check_int "C(4,1)" 4
    (List.length (Mac_routing.K_subsets.threads_for ~n:6 ~k:3 ~src:0 ~dst:1));
  check_int "C(6,2)" 15
    (List.length (Mac_routing.K_subsets.threads_for ~n:8 ~k:4 ~src:2 ~dst:7))

let test_threads_for_contain_both () =
  let sets = Mac_routing.Combi.k_subsets ~n:6 ~k:3 in
  List.iter
    (fun i ->
      let s = sets.(i) in
      check_bool "contains src" true (Array.exists (( = ) 0) s);
      check_bool "contains dst" true (Array.exists (( = ) 4) s))
    (Mac_routing.K_subsets.threads_for ~n:6 ~k:3 ~src:0 ~dst:4)

let test_invalid_k_rejected () =
  Alcotest.check_raises "k too big" (Invalid_argument "K_subsets: need 2 <= k < n")
    (fun () -> ignore (algo ~n:4 ~k:4 ()))

(* ---- behaviour ---- *)

let test_flags () =
  let module M = (val algo ~n:6 ~k:3 ()) in
  check_bool "mbtf uses a control bit" false M.plain_packet;
  check_bool "direct" true M.direct;
  check_bool "oblivious" true M.oblivious;
  let module R = (val algo ~discipline:`Rrw ~n:6 ~k:3 ()) in
  check_bool "rrw variant is plain" true R.plain_packet

let test_stable_at_optimal_rate_pair_flood () =
  let s =
    run_ks ~rounds:100_000 ~drain:0 (Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
  in
  check_bool "stable at k(k-1)/(n(n-1))" true (is_stable s);
  assert_clean "pair flood" s;
  assert_cap "cap 3" 3 s

let test_stable_at_optimal_rate_uniform () =
  let s =
    run_ks ~rounds:100_000 ~drain:0 (Mac_adversary.Pattern.uniform ~n:6 ~seed:2)
  in
  check_bool "stable" true (is_stable s);
  check_bool "queue bound" true
    (float_of_int s.max_total_queue
     <= Mac_experiments.Bounds.k_subsets_queue_bound ~n:6 ~k:3 ~beta:4.0)

let test_direct_single_hop () =
  let s = run_ks ~rate:0.1 (Mac_adversary.Pattern.uniform ~n:6 ~seed:3) in
  check_int "one hop" 1 s.max_hops;
  assert_delivered_all "uniform 0.1" s

let test_rrw_variant_delivers_with_bounded_latency () =
  let s =
    run_ks ~discipline:`Rrw ~rate:(0.8 *. rate_for ~n:6 ~k:3)
      (Mac_adversary.Pattern.uniform ~n:6 ~seed:4)
  in
  assert_delivered_all "rrw" s;
  check_int "plain" 0 s.control_bits_total;
  check_bool "stable" true (is_stable s)

let test_unstable_above_threshold_min_pair () =
  let n = 6 and k = 3 in
  let a = algo ~n ~k () in
  let schedule = Option.get (Mac_experiments.Scenario.schedule_of a ~n ~k) in
  let choice =
    Mac_adversary.Saboteur.min_pair ~n
      ~horizon:(20 * Mac_routing.Combi.binomial n k) ~schedule
  in
  let s =
    run_ks ~rate:(1.3 *. rate_for ~n ~k) ~rounds:120_000 ~drain:0
      (choice.Mac_adversary.Saboteur.pattern ())
  in
  check_bool "unstable above threshold" true (is_unstable s)

let test_min_pair_coduty_matches_theory () =
  (* the least co-scheduled pair is co-on exactly k(k-1)/(n(n-1)) of rounds *)
  let n = 6 and k = 3 in
  let a = algo ~n ~k () in
  let schedule = Option.get (Mac_experiments.Scenario.schedule_of a ~n ~k) in
  let gamma = Mac_routing.Combi.binomial n k in
  let co = ref 0 in
  for round = 0 to gamma - 1 do
    if schedule ~me:0 ~round && schedule ~me:1 ~round then incr co
  done;
  check_int "co-duty = C(n-2,k-2) per gamma rounds"
    (Mac_routing.Combi.binomial (n - 2) (k - 2))
    !co

let test_energy_profile () =
  let s = run_ks ~rate:0.1 (Mac_adversary.Pattern.uniform ~n:6 ~seed:5) in
  check_int "exactly k on" 3 s.max_on;
  Alcotest.(check (float 0.01)) "every round one subset" 3.0 s.mean_on

let test_larger_instance () =
  let s =
    run_ks ~n:8 ~k:3 ~rounds:100_000 ~drain:0
      (Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
  in
  check_bool "n=8 stable at threshold" true (is_stable s);
  assert_clean "n=8" s

let () =
  Alcotest.run "k-subsets"
    [ ("threads",
       [ Alcotest.test_case "counts" `Quick test_threads_for_counts;
         Alcotest.test_case "contain both" `Quick test_threads_for_contain_both;
         Alcotest.test_case "invalid k" `Quick test_invalid_k_rejected;
         Alcotest.test_case "co-duty theory" `Quick test_min_pair_coduty_matches_theory ]);
      ("behaviour",
       [ Alcotest.test_case "flags" `Quick test_flags;
         Alcotest.test_case "single hop" `Quick test_direct_single_hop;
         Alcotest.test_case "energy profile" `Quick test_energy_profile;
         Alcotest.test_case "rrw variant" `Slow test_rrw_variant_delivers_with_bounded_latency ]);
      ("bounds",
       [ Alcotest.test_case "stable at threshold (pair)" `Slow
           test_stable_at_optimal_rate_pair_flood;
         Alcotest.test_case "stable at threshold (uniform)" `Slow
           test_stable_at_optimal_rate_uniform;
         Alcotest.test_case "unstable above" `Slow test_unstable_above_threshold_min_pair;
         Alcotest.test_case "n=8" `Slow test_larger_instance ]) ]
