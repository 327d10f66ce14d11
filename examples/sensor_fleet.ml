(* Sensor fleet: energy-oblivious routing for battery devices.

   Twelve battery-powered sensors share one channel and must survive on a
   supply that can power at most 4 radios at a time. Because radios are
   cheapest when wake-ups are burned into firmware, the dispatch schedule
   must be fixed in advance — exactly the paper's k-energy-oblivious class.

   The fleet compares the three oblivious disciplines at the same offered
   load: pair-TDMA (the naive baseline), k-Clique (direct) and k-Cycle
   (indirect, higher throughput ceiling). It also shows the ceiling itself:
   the same load that k-Cycle absorbs drowns pair-TDMA.

     dune exec examples/sensor_fleet.exe *)

let n = 12
let k = 4
let rounds = 150_000

let run ~algorithm ~rate ~pattern =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate ~burst:(Mac_channel.Qrat.of_int 4)
      pattern
  in
  Mac_sim.Engine.run ~algorithm ~n ~k ~adversary ~rounds ()

let row name (s : Mac_sim.Metrics.summary) verdict =
  [ name;
    Printf.sprintf "%d/%d" s.delivered s.injected;
    Printf.sprintf "%.0f" s.mean_delay;
    string_of_int (max s.max_delay s.max_queued_age);
    string_of_int s.final_total_queue;
    Printf.sprintf "%.2f" s.mean_on;
    Printf.sprintf "%.1f" (Mac_sim.Metrics.energy_per_delivery s);
    verdict ]

let () =
  (* Telemetry converges on a gateway (station 0): hotspot traffic at 60% of
     k-Cycle's threshold — above what the baselines can take. *)
  let rate =
    Mac_channel.Qrat.mul (Mac_channel.Qrat.make 3 5)
      (Mac_experiments.Bounds.k_cycle_rate_q ~n ~k)
  in
  let pattern seed = Mac_adversary.Pattern.hotspot ~n ~seed ~hot:0 ~bias:0.8 in
  let report =
    Mac_sim.Report.create
      ~header:
        [ "discipline"; "delivered"; "mean-delay"; "worst-delay"; "backlog";
          "radios on"; "energy/reading"; "verdict" ]
  in
  let eval name algorithm =
    let s = run ~algorithm ~rate ~pattern:(pattern 13) in
    let v = Mac_sim.Stability.classify s.queue_series in
    Mac_sim.Report.add_row report
      (row name s (Mac_sim.Stability.verdict_to_string v.verdict))
  in
  Printf.printf
    "Sensor fleet: %d sensors, supply for %d radios, gateway-bound telemetry \
     at rate %.3f\n\n" n k (Mac_channel.Qrat.to_float rate);
  eval "pair-tdma (baseline)" (module Mac_routing.Pair_tdma);
  eval "k-clique (direct)" (Mac_routing.K_clique.algorithm ~n ~k);
  eval "k-cycle (indirect)" (Mac_routing.K_cycle.algorithm ~n ~k);
  eval "k-subsets (direct, optimal rate)" (Mac_routing.K_subsets.algorithm ~n ~k ());
  Mac_sim.Report.print report;
  Printf.printf
    "\nThresholds at n=%d, k=%d: pair-tdma %.4f | k-clique %.4f | k-subsets \
     %.4f | k-cycle %.4f\n"
    n k
    (2.0 /. float_of_int (n * (n - 1)))
    (Mac_experiments.Bounds.k_clique_stable_rate ~n ~k)
    (Mac_experiments.Bounds.k_subsets_rate ~n ~k)
    (Mac_experiments.Bounds.k_cycle_rate ~n ~k);
  print_endline
    "k-Cycle relays hop readings from group to group, so its stable region\n\
     is an order of magnitude wider than any direct oblivious schedule."
