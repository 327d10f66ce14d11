(* k-Cycle (§5): oblivious schedule, group-hop relaying, the latency bound at
   moderate load, stability below (k-1)/(n-1), and Theorem-6 instability
   above k/n under the min-duty saboteur. *)

open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let algo ~n ~k = Mac_routing.K_cycle.algorithm ~n ~k

let threshold ~n ~k = Mac_experiments.Bounds.k_cycle_rate ~n ~k

let run_kc ?(n = 12) ?(k = 4) ?(rate = 0.1) ?(burst = 2.0) ?(rounds = 60_000)
    ?(drain = 30_000) pattern =
  run ~algorithm:(algo ~n ~k) ~n ~k ~rate ~burst ~pattern ~rounds ~drain ()

let test_plain_packet_and_oblivious () =
  let module A = (val algo ~n:12 ~k:4) in
  check_bool "plain" true A.plain_packet;
  check_bool "oblivious" true A.oblivious;
  check_bool "indirect" true (not A.direct);
  check_int "cap is effective k" 4 (A.required_cap ~n:12 ~k:4)

let test_schedule_is_traffic_independent () =
  (* on/off sequences must be identical across different traffic: the engine
     cross-checks against the static schedule in every run (check_schedule),
     so two clean runs with different patterns prove obliviousness. *)
  let s1 = run_kc (Mac_adversary.Pattern.uniform ~n:12 ~seed:1) in
  let s2 = run_kc (Mac_adversary.Pattern.flood ~n:12 ~victim:7) in
  assert_clean "uniform" s1;
  assert_clean "flood" s2

let test_delivers_everything () =
  let s = run_kc ~rate:0.15 (Mac_adversary.Pattern.uniform ~n:12 ~seed:2) in
  assert_delivered_all "uniform 0.15" s;
  assert_cap "cap" 4 s

let test_latency_bound_at_half_rate () =
  let n = 12 and k = 4 and burst = 2.0 in
  let rate = 0.5 *. threshold ~n ~k in
  let s = run_kc ~rate ~burst (Mac_adversary.Pattern.uniform ~n ~seed:6) in
  let bound = (32.0 +. burst) *. float_of_int n in
  check_bool
    (Printf.sprintf "delay %d <= %.0f" (worst_delay s) bound)
    true
    (float_of_int (worst_delay s) <= bound);
  assert_delivered_all "half rate" s

let test_stable_near_threshold () =
  let n = 12 and k = 4 in
  let rate = 0.9 *. threshold ~n ~k in
  let s = run_kc ~rate ~rounds:100_000 ~drain:50_000
      (Mac_adversary.Pattern.flood ~n ~victim:5)
  in
  check_bool "stable at 0.9 threshold" true (is_stable s);
  assert_delivered_all "near threshold" s

let test_relaying_around_the_cycle () =
  (* a packet injected into the last group destined to the first group must
     hop through connectors *)
  let s = run_kc ~rate:0.05 (Mac_adversary.Pattern.pair_flood ~src:10 ~dst:1) in
  assert_delivered_all "around the cycle" s;
  check_bool "multi-hop" true (s.max_hops >= 2);
  check_bool "relays happened" true (s.relay_rounds > 0)

let test_unstable_above_k_over_n () =
  let n = 12 and k = 4 in
  let schedule =
    Option.get (Mac_experiments.Scenario.schedule_of (algo ~n ~k) ~n ~k)
  in
  let choice = Mac_adversary.Saboteur.min_duty ~n ~horizon:30_000 ~schedule in
  let s =
    run_kc ~rate:(1.2 *. float_of_int k /. float_of_int n) ~rounds:100_000
      ~drain:0 (choice.Mac_adversary.Saboteur.pattern ())
  in
  check_bool "unstable above k/n" true (is_unstable s)

let test_k_adjustment_when_n_small () =
  (* n <= 2k forces k' = (n+1)/2 *)
  let s = run_kc ~n:7 ~k:6 ~rate:0.2 (Mac_adversary.Pattern.uniform ~n:7 ~seed:3) in
  check_bool "cap reduced to 4" true (s.max_on <= 4);
  assert_delivered_all "adjusted k" s

let test_uneven_last_group () =
  (* n=10, k=4: boundaries 0,3,6,9,10 -> last group is {9, 0} of size 2 *)
  let s = run_kc ~n:10 ~k:4 ~rate:0.1 (Mac_adversary.Pattern.uniform ~n:10 ~seed:4) in
  assert_clean "uneven groups" s;
  assert_delivered_all "uneven groups" s

let test_energy_profile () =
  let s = run_kc ~rate:0.1 (Mac_adversary.Pattern.uniform ~n:12 ~seed:5) in
  check_int "k on in every round" 4 s.max_on;
  Alcotest.(check (float 0.1)) "mean on = k" 4.0 s.mean_on

let () =
  Alcotest.run "k-cycle"
    [ ("classification",
       [ Alcotest.test_case "flags" `Quick test_plain_packet_and_oblivious;
         Alcotest.test_case "oblivious schedule" `Slow test_schedule_is_traffic_independent;
         Alcotest.test_case "energy profile" `Quick test_energy_profile ]);
      ("routing",
       [ Alcotest.test_case "delivers all" `Quick test_delivers_everything;
         Alcotest.test_case "cycle relaying" `Quick test_relaying_around_the_cycle;
         Alcotest.test_case "k adjustment" `Quick test_k_adjustment_when_n_small;
         Alcotest.test_case "uneven last group" `Quick test_uneven_last_group ]);
      ("bounds",
       [ Alcotest.test_case "latency at half rate" `Slow test_latency_bound_at_half_rate;
         Alcotest.test_case "stable near threshold" `Slow test_stable_near_threshold;
         Alcotest.test_case "unstable above k/n" `Slow test_unstable_above_k_over_n ]) ]
