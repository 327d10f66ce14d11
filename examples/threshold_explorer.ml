(* Threshold explorer: locate an algorithm's empirical stability frontier by
   bisection and compare it with the theory.

     dune exec examples/threshold_explorer.exe -- [k-cycle|k-clique|k-subsets|pair-tdma]

   For the chosen oblivious algorithm the explorer bisects on the injection
   rate: below the frontier the worst flood stays bounded, above it the
   matching saboteur forces linear queue growth. Eight bisection steps pin
   the frontier to within a percent or two of the Table-1 prediction. *)

module Q = Mac_channel.Qrat
module Bounds = Mac_experiments.Bounds

let n = 12
let k = 4
let rounds = 120_000

type subject = {
  name : string;
  algorithm : Mac_channel.Algorithm.t;
  lower_bound : Q.t; (* stability guaranteed below (Table 1) *)
  upper_bound : Q.t; (* instability guaranteed above (Table 1) *)
  sk : int;            (* the k the algorithm itself uses *)
}

let subjects =
  [ { name = "k-cycle";
      algorithm = Mac_routing.K_cycle.algorithm ~n ~k;
      (* the implementable frontier (k-1)/n, not the paper's (k-1)/(n-1):
         see EXPERIMENTS.md, T1.k-cycle finding (b) *)
      lower_bound = Bounds.k_cycle_rate_impl_q ~n ~k;
      upper_bound = Bounds.oblivious_rate_upper_q ~n ~k;
      sk = k };
    { name = "k-clique";
      algorithm = Mac_routing.K_clique.algorithm ~n ~k;
      lower_bound = Bounds.k_clique_stable_rate_q ~n ~k;
      upper_bound = Bounds.k_subsets_rate_q ~n ~k;
      sk = k };
    { name = "k-subsets";
      algorithm = Mac_routing.K_subsets.algorithm ~n ~k ();
      lower_bound = Bounds.k_subsets_rate_q ~n ~k;
      upper_bound = Bounds.k_subsets_rate_q ~n ~k;
      sk = k };
    { name = "pair-tdma";
      algorithm = (module Mac_routing.Pair_tdma);
      (* a one-directional flood only uses the pair's own slot: 1/(n(n-1)),
         half of the optimal k = 2 rate *)
      lower_bound = Q.make 1 (n * (n - 1));
      upper_bound = Q.make 1 (n * (n - 1));
      sk = 2 } ]

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "k-subsets" in
  let subject =
    match List.find_opt (fun s -> s.name = name) subjects with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown subject %S; one of: %s\n" name
        (String.concat ", " (List.map (fun s -> s.name) subjects));
      exit 2
  in
  Printf.printf "Bisecting the stability frontier of %s (n=%d, k=%d)\n"
    subject.name n subject.sk;
  Printf.printf "Theory: stable below %.4f, unstable above %.4f\n\n%!"
    (Q.to_float subject.lower_bound)
    (Q.to_float subject.upper_bound);
  (* The hardest legal adversary we know for a rate: the min-co-duty pair
     flood (the Theorem-9 construction, which also stresses indirect
     algorithms hard). *)
  let schedule =
    Option.get
      (Mac_experiments.Scenario.schedule_of subject.algorithm ~n ~k:subject.sk)
  in
  let pattern =
    (Mac_adversary.Saboteur.min_pair ~n ~horizon:30_000 ~schedule)
      .Mac_adversary.Saboteur.pattern
  in
  let probe =
    Mac_experiments.Sweep.stability_probe_q ~algorithm:subject.algorithm ~n
      ~k:subject.sk ~pattern ~rounds ()
  in
  let lo, hi =
    Mac_experiments.Sweep.bisect_q ~steps:8
      ~lo:(Q.mul (Q.make 1 4) subject.lower_bound)
      ~hi:(Q.min Q.one (Q.mul_int subject.upper_bound 3))
      probe
  in
  Printf.printf
    "Empirical frontier in [%.4f, %.4f]; Table 1 predicts [%.4f, %.4f].\n"
    (Q.to_float lo) (Q.to_float hi)
    (Q.to_float subject.lower_bound)
    (Q.to_float subject.upper_bound)
