(* Adjust-Window (§4.2): window sizing formulas, plain-packet discipline
   under energy cap 2, universality, coded-transfer relaying, and window
   doubling under overload. *)

open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let aw = (module Mac_routing.Adjust_window : Mac_channel.Algorithm.S)

let run_aw ?(n = 4) ?(rate = 0.4) ?(burst = 2.0) ?(rounds = 80_000)
    ?(drain = 40_000) pattern =
  run ~algorithm:aw ~check_schedule:false ~n ~k:2 ~rate ~burst ~pattern ~rounds
    ~drain ()

(* ---- window arithmetic ---- *)

let test_initial_window_fixpoint () =
  let main_at_least_half l n =
    let _, m, _ = Mac_routing.Adjust_window.window_layout ~n ~l in
    2 * m >= l
  in
  List.iter
    (fun n ->
      let l = Mac_routing.Adjust_window.initial_window ~n in
      check_bool (Printf.sprintf "main >= L/2 at n=%d" n) true
        (main_at_least_half l n);
      check_bool "smallest such L" true (not (main_at_least_half (l - 1) n)))
    [ 3; 4; 5; 6; 8 ]

let test_window_layout_sums () =
  List.iter
    (fun n ->
      let l = Mac_routing.Adjust_window.initial_window ~n in
      let g, m, a = Mac_routing.Adjust_window.window_layout ~n ~l in
      check_int "stages partition the window" l (g + m + a);
      check_bool "main is at least half" true (2 * m >= l);
      let lg_l = Mac_routing.Combi.lg l in
      check_int "gossip length" (n * n * (2 + (3 * lg_l))) g;
      check_int "auxiliary length" (8 * n * n * n * lg_l) a)
    [ 3; 4; 6 ]

(* ---- behaviour ---- *)

let test_plain_packets_only () =
  let s = run_aw (Mac_adversary.Pattern.uniform ~n:4 ~seed:3) in
  check_int "no control bits ever" 0 s.control_bits_total;
  assert_clean "plain" s

let test_cap_two () =
  let s = run_aw (Mac_adversary.Pattern.uniform ~n:4 ~seed:5) in
  assert_cap "cap 2" 2 s

let test_delivers_everything () =
  List.iter
    (fun (rate, seed) ->
      let s = run_aw ~rate (Mac_adversary.Pattern.uniform ~n:4 ~seed) in
      assert_delivered_all (Printf.sprintf "rate %.1f" rate) s;
      assert_clean "complete" s)
    [ (0.2, 7); (0.5, 8) ]

let test_flood_traffic () =
  let s = run_aw ~rate:0.6 ~rounds:120_000 ~drain:70_000
      (Mac_adversary.Pattern.flood ~n:4 ~victim:2)
  in
  assert_delivered_all "flood" s;
  check_bool "stable" true (is_stable s)

let test_relays_used_when_needed () =
  (* With single-destination floods the large station's coded transfer must
     sometimes spend packets addressed elsewhere: j adopts them. *)
  let s =
    run_aw ~rate:0.7 ~rounds:120_000 ~drain:80_000
      (Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
  in
  assert_delivered_all "pair flood" s;
  check_bool "indirect routing exercised" true (s.relay_rounds > 0);
  check_bool "multi-hop packets exist" true (s.max_hops >= 2)

let test_dedicated_main_drains_overload () =
  (* A single burst larger than the window size L forces the over-L gossip
     bit and the dedicated Main stage (DESIGN.md interpretation 3); the
     window doubles and everything must still be delivered. *)
  let n = 4 in
  let l0 = Mac_routing.Adjust_window.initial_window ~n in
  let burst = float_of_int (l0 + 2_000) in
  let s =
    run ~algorithm:aw ~check_schedule:false ~n ~k:2 ~rate:0.01 ~burst
      ~pattern:(Mac_adversary.Pattern.flood ~n ~victim:1)
      ~rounds:(6 * l0) ~drain:(8 * l0) ()
  in
  check_bool "burst exceeded one window" true (s.max_station_queue > l0);
  assert_delivered_all "overload drained" s;
  assert_clean "overload" s;
  assert_cap "overload" 2 s

let test_unstable_at_rate_one () =
  let s =
    run_aw ~rate:1.0 ~rounds:150_000 ~drain:0
      (Mac_adversary.Pattern.flood ~n:4 ~victim:1)
  in
  check_bool "unstable at rate 1" true (is_unstable s)

let test_larger_system () =
  let s =
    run ~algorithm:aw ~check_schedule:false ~n:6 ~k:2 ~rate:0.4 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:11) ~rounds:200_000
      ~drain:140_000 ()
  in
  assert_delivered_all "n=6" s;
  assert_clean "n=6" s;
  assert_cap "n=6" 2 s

let test_latency_within_doubled_window () =
  let n = 4 and rate = 0.4 and burst = 2.0 in
  let s = run_aw ~rate ~burst (Mac_adversary.Pattern.uniform ~n ~seed:13) in
  let bound =
    Mac_experiments.Bounds.adjust_window_latency_impl ~n ~rho:rate ~beta:burst
  in
  check_bool
    (Printf.sprintf "worst delay %d within executable bound %.0f"
       (worst_delay s) bound)
    true
    (float_of_int (worst_delay s) <= bound)

let test_quiet_system_stays_dark () =
  (* With no packets at all every station is small, gossip is silent and the
     system spends no energy in Main; only listeners burn rounds. *)
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 9 10)
      ~burst:(Mac_channel.Qrat.of_int 1)
      (Mac_adversary.Pattern.make ~name:"nothing" (fun ~round:_ ~budget:_ ~view:_ -> []))
  in
  let s =
    Mac_sim.Engine.run ~algorithm:aw ~n:4 ~k:2 ~adversary ~rounds:20_000 ()
  in
  check_int "nothing transmitted" 0 s.delivery_rounds;
  check_bool "mostly dark" true (s.mean_on <= 1.1)

let () =
  Alcotest.run "adjust-window"
    [ ("window-arithmetic",
       [ Alcotest.test_case "initial fixpoint" `Quick test_initial_window_fixpoint;
         Alcotest.test_case "layout" `Quick test_window_layout_sums ]);
      ("behaviour",
       [ Alcotest.test_case "plain packets" `Slow test_plain_packets_only;
         Alcotest.test_case "cap 2" `Slow test_cap_two;
         Alcotest.test_case "delivers all" `Slow test_delivers_everything;
         Alcotest.test_case "flood" `Slow test_flood_traffic;
         Alcotest.test_case "relays" `Slow test_relays_used_when_needed;
         Alcotest.test_case "dedicated main overload" `Slow
           test_dedicated_main_drains_overload;
         Alcotest.test_case "unstable at 1" `Slow test_unstable_at_rate_one;
         Alcotest.test_case "n=6" `Slow test_larger_system;
         Alcotest.test_case "latency bound" `Slow test_latency_within_doubled_window;
         Alcotest.test_case "quiet stays dark" `Quick test_quiet_system_stays_dark ]) ]
