(* Quickstart: simulate the paper's headline result.

   Ten stations share an Ethernet-like channel. The adversary injects one
   packet every round — the channel's absolute capacity — and dumps them all
   into a single unlucky station. Orchestra keeps at most three stations
   powered at any instant and still never lets queues grow.

     dune exec examples/quickstart.exe *)

let () =
  let n = 10 in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:Mac_channel.Qrat.one
      ~burst:(Mac_channel.Qrat.of_int 4)
      (Mac_adversary.Pattern.flood ~n ~victim:3)
  in
  let summary =
    Mac_sim.Engine.run
      ~algorithm:(module Mac_routing.Orchestra)
      ~n ~k:3 ~adversary ~rounds:100_000 ()
  in
  Format.printf "%a@.@." Mac_sim.Metrics.pp_summary summary;
  let verdict = Mac_sim.Stability.classify summary.queue_series in
  Format.printf "stability: %a@." Mac_sim.Stability.pp_report verdict;
  Format.printf
    "Theorem 1 queue bound 2n^3+beta = %.0f, measured max backlog = %d@."
    (2.0 *. float_of_int (n * n * n) +. 4.0)
    summary.max_total_queue;
  Format.printf "Energy: never more than %d of %d stations on (cap 3).@."
    summary.max_on n
