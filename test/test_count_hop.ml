(* Count-Hop (§4.1): universality under energy cap 2, the latency bound
   shape, phase structure, and instability at rate 1 (Theorem 2). *)

open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let count_hop = (module Mac_routing.Count_hop : Mac_channel.Algorithm.S)

let run_ch ?(n = 8) ?(rate = 0.8) ?(burst = 2.0) ?(rounds = 40_000) ?(drain = 20_000)
    pattern =
  run ~algorithm:count_hop ~check_schedule:false ~n ~k:2 ~rate ~burst ~pattern
    ~rounds ~drain ()

let impl_latency_bound ~n ~rate ~burst =
  2.0 *. (float_of_int (n * ((2 * n) - 3)) +. burst) /. (1.0 -. rate)

let test_stable_and_complete_below_one () =
  List.iter
    (fun rate ->
      let s = run_ch ~rate (Mac_adversary.Pattern.uniform ~n:8 ~seed:17) in
      assert_clean (Printf.sprintf "rate %.2f" rate) s;
      assert_cap "cap 2" 2 s;
      assert_delivered_all "complete" s;
      check_bool "stable" true (is_stable s))
    [ 0.3; 0.6; 0.9 ]

let test_latency_bound () =
  List.iter
    (fun (rate, burst) ->
      let s = run_ch ~rate ~burst (Mac_adversary.Pattern.flood ~n:8 ~victim:5) in
      let bound = impl_latency_bound ~n:8 ~rate ~burst in
      check_bool
        (Printf.sprintf "latency %d under %.0f at rate %.2f" (worst_delay s) bound rate)
        true
        (float_of_int (worst_delay s) <= bound))
    [ (0.5, 2.0); (0.8, 2.0); (0.9, 8.0) ]

let test_every_destination_served () =
  (* packets to every station, including the coordinator (station 0) *)
  let s = run_ch ~rate:0.5 (Mac_adversary.Pattern.round_robin ~n:8) in
  assert_delivered_all "round robin" s

let test_packets_to_coordinator () =
  let s =
    run_ch ~rate:0.3 (Mac_adversary.Pattern.pair_flood ~src:3 ~dst:0)
  in
  assert_delivered_all "to coordinator" s;
  assert_clean "to coordinator" s

let test_packets_from_coordinator () =
  (* The paper leaves coordinator-held packets unspecified; our schedule
     (DESIGN.md interpretation 2) must still deliver them. *)
  let s =
    run_ch ~rate:0.3 (Mac_adversary.Pattern.pair_flood ~src:0 ~dst:5)
  in
  assert_delivered_all "from coordinator" s;
  assert_clean "from coordinator" s

let test_direct_routing () =
  let s = run_ch ~rate:0.5 (Mac_adversary.Pattern.uniform ~n:8 ~seed:23) in
  check_int "one hop" 1 s.max_hops;
  check_int "no relays" 0 s.relay_rounds

let test_unstable_at_rate_one () =
  let s =
    run_ch ~rate:1.0 ~rounds:80_000 ~drain:0
      (Mac_adversary.Pattern.flood ~n:8 ~victim:3)
  in
  check_bool "unstable at 1" true (is_unstable s)

let test_unstable_under_lemma1_breaker () =
  let breaker = Mac_adversary.Saboteur.cap2_breaker ~n:8 in
  let s =
    run_ch ~rate:1.0 ~burst:1.0 ~rounds:80_000 ~drain:0
      (breaker.Mac_adversary.Saboteur.pattern ())
  in
  check_bool "unstable under breaker" true (is_unstable s)

let test_first_phase_all_off () =
  (* The first phase is n silent all-off rounds; a 1-round run must show a
     silent round and zero energy. *)
  let s =
    run ~algorithm:count_hop ~check_schedule:false ~n:6 ~k:2 ~rate:0.5
      ~burst:2.0 ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:1)
      ~rounds:6 ()
  in
  check_int "all silent" 6 s.silent_rounds;
  check_int "nobody on" 0 s.max_on

let test_small_n () =
  let s = run_ch ~n:3 ~rate:0.7 (Mac_adversary.Pattern.uniform ~n:3 ~seed:2) in
  assert_clean "n=3" s;
  assert_delivered_all "n=3" s

let test_control_bits_logarithmic_per_message () =
  let s = run_ch ~rate:0.5 (Mac_adversary.Pattern.uniform ~n:8 ~seed:29) in
  (* counts and offsets stay well under 2 * queue bits; with backlog ~ a few
     hundred packets, 32 bits/message is a generous ceiling. *)
  check_bool "bounded control payloads" true (s.control_bits_max <= 32)

let test_bursty_pacing_mid_run () =
  let s =
    run ~algorithm:count_hop ~check_schedule:false ~n:8 ~k:2 ~rate:0.7
      ~burst:50.0
      ~pacing:(Mac_adversary.Adversary.Paced { burst_at = Some 20_000 })
      ~pattern:(Mac_adversary.Pattern.uniform ~n:8 ~seed:31) ~rounds:40_000
      ~drain:20_000 ()
  in
  assert_delivered_all "mid-run burst absorbed" s;
  assert_clean "mid-run burst" s

let () =
  Alcotest.run "count-hop"
    [ ("universality",
       [ Alcotest.test_case "stable below 1" `Slow test_stable_and_complete_below_one;
         Alcotest.test_case "latency bound" `Slow test_latency_bound;
         Alcotest.test_case "unstable at 1" `Slow test_unstable_at_rate_one;
         Alcotest.test_case "lemma-1 breaker" `Slow test_unstable_under_lemma1_breaker;
         Alcotest.test_case "mid-run burst" `Slow test_bursty_pacing_mid_run ]);
      ("structure",
       [ Alcotest.test_case "every destination" `Quick test_every_destination_served;
         Alcotest.test_case "to coordinator" `Quick test_packets_to_coordinator;
         Alcotest.test_case "from coordinator" `Quick test_packets_from_coordinator;
         Alcotest.test_case "direct" `Quick test_direct_routing;
         Alcotest.test_case "first phase off" `Quick test_first_phase_all_off;
         Alcotest.test_case "n=3" `Quick test_small_n;
         Alcotest.test_case "control bits" `Quick test_control_bits_logarithmic_per_message ]) ]
