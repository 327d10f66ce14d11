open Mac_channel

type algo_axis = {
  algo_id : string;
  n : int;
  k : int;
  seed : int;
}

type adversary_axis = {
  adv_id : string;
  rate : Qrat.t;
  burst : Qrat.t;
  pacing : Mac_adversary.Adversary.pacing;
  pattern : n:int -> Mac_adversary.Pattern.t;
}

type fault_axis = {
  fault_id : string;
  plan : n:int -> rounds:int -> Mac_faults.Fault_plan.t option;
}

(* Fixed (n, k) per algorithm: the matrix compares behaviours, not
   scalings, so each algorithm runs at a representative system size (the
   same sizes the Table-1 rows use). The broadcast family predates the
   energy cap and runs all stations on, hence k = n there. The seed only
   matters to random-leader and backoff. *)
let algorithms =
  List.map
    (fun (algo_id, n, k, seed) -> { algo_id; n; k; seed })
    [ ("orchestra", 6, 3, 0); ("count-hop", 6, 2, 0);
      ("adjust-window", 6, 2, 0); ("k-cycle", 8, 4, 0); ("k-clique", 8, 4, 0);
      ("k-subsets", 6, 3, 0); ("k-subsets-rrw", 6, 3, 0);
      ("pair-tdma", 6, 2, 0); ("random-leader", 6, 3, 7); ("rrw", 6, 6, 0);
      ("of-rrw", 6, 6, 0); ("mbtf", 6, 6, 0); ("fs-tree", 6, 6, 0);
      ("ack-rr", 6, 6, 0); ("backoff", 6, 6, 11) ]

let algorithm a =
  match Registry.algorithm ~seed:a.seed a.algo_id ~n:a.n ~k:a.k with
  | Ok alg -> alg
  | Error msg -> invalid_arg ("Matrix: " ^ msg)

let adversaries =
  [ { adv_id = "trickle";
      rate = Qrat.make 1 8; burst = Qrat.of_int 2;
      pacing = Mac_adversary.Adversary.Greedy;
      pattern = (fun ~n -> Mac_adversary.Pattern.uniform ~n ~seed:901) };
    { adv_id = "burst-flood";
      rate = Qrat.make 1 2; burst = Qrat.of_int 12;
      pacing = Mac_adversary.Adversary.Greedy;
      pattern = (fun ~n -> Mac_adversary.Pattern.flood ~n ~victim:(n / 2)) };
    { adv_id = "paced-rr";
      rate = Qrat.make 1 4; burst = Qrat.of_int 6;
      pacing = Mac_adversary.Adversary.Paced { burst_at = Some 97 };
      pattern = (fun ~n -> Mac_adversary.Pattern.round_robin ~n) } ]

let faults =
  [ { fault_id = "clean"; plan = (fun ~n:_ ~rounds:_ -> None) };
    { fault_id = "jam-noise";
      plan =
        (fun ~n ~rounds ->
          Some
            (Mac_faults.Fault_plan.random ~seed:4242 ~n ~rounds
               ~jam_rate:0.01 ~noise_rate:0.002 ())) };
    { fault_id = "crash-restart";
      plan =
        (fun ~n ~rounds ->
          Some
            (Mac_faults.Fault_plan.random ~seed:2424 ~n ~rounds
               ~crash_rate:0.0015 ~jam_rate:0.002 ~restart_after:60
               ~queue:Mac_faults.Fault_plan.Retain ())) } ]

let cell_id a adv f =
  Printf.sprintf "matrix/%s/%s/%s" a.algo_id adv.adv_id f.fault_id

let cells_for ~only ~scale =
  let rounds = Scenario.scaled ~scale ~quick:4_000 ~full:60_000 in
  let drain = Scenario.scaled ~scale ~quick:1_500 ~full:12_000 in
  List.concat_map
    (fun a ->
      if not (only a.algo_id) then []
      else
        let algorithm = algorithm a in
        List.concat_map
          (fun adv ->
            List.map
              (fun f ->
                { Table1.checks = [];
                  spec =
                    Scenario.spec_q ~id:(cell_id a adv f)
                      ~algorithm ~n:a.n ~k:a.k ~rate:adv.rate
                      ~burst:adv.burst
                      ~pattern:(fun () -> adv.pattern ~n:a.n)
                      ~pacing:adv.pacing ~rounds ~drain
                      ?faults:(f.plan ~n:a.n ~rounds) () })
              faults)
          adversaries)
    algorithms

let claim =
  "Cross-paper matrix: every algorithm (routing + broadcast families) x \
   every adversary x every fault plan, per-cell stability verdicts"

let row_for ~only = Table1.row ~id:"matrix" ~claim (cells_for ~only)
let row = row_for ~only:(fun _ -> true)

(* ---- Stability-frontier thresholds ---- *)

let threshold_id a adv = Printf.sprintf "matrix-th/%s/%s" a.algo_id adv.adv_id

let thresholds ?jobs ?policy ?on_event ?(only = fun _ -> true) ~scale () =
  let rounds = Scenario.scaled ~scale ~quick:3_000 ~full:20_000 in
  let steps = Scenario.scaled ~scale ~quick:5 ~full:8 in
  let lo = Qrat.make 1 64 and hi = Qrat.of_int 1 in
  let brackets =
    List.concat_map
      (fun a ->
        if not (only a.algo_id) then []
        else
          let algorithm = algorithm a in
          List.map
            (fun adv ->
              { Sweep.label = threshold_id a adv; lo; hi; steps;
                probe =
                  Sweep.stability_probe_q ~algorithm ~n:a.n ~k:a.k
                    ~pattern:(fun () -> adv.pattern ~n:a.n)
                    ~burst:adv.burst ~rounds () })
            adversaries)
      algorithms
  in
  List.concat_map snd
    (Scenario.sweep ?jobs ?policy ?on_event
       ~label:(fun (b : Sweep.bracket) -> b.label)
       [ ((), brackets) ]
       (fun () b -> Sweep.frontier b))

let frontier_json ~label f =
  let kind, lo, hi =
    match (f : Sweep.frontier) with
    | Bracket (lo, hi) ->
      ("bracket", Qrat.to_string lo, Qrat.to_string hi)
    | Stable_to_ceiling hi -> ("stable-to-ceiling", "", Qrat.to_string hi)
    | Unstable_at_floor lo -> ("unstable-at-floor", Qrat.to_string lo, "")
  in
  Printf.sprintf
    {|{"threshold": "%s", "kind": "%s", "stable_at": "%s", "unstable_at": "%s"}|}
    label kind lo hi

(* ---- Cell export ---- *)

let csv_header = "algorithm,adversary,fault,verdict,passed"

(* Every column is recoverable from a [Cached] replay as well as a
   [Fresh] outcome (id, verdict, passed), so a resumed sweep's CSV stays
   byte-identical to an uninterrupted one. *)
let csv_line r =
  let id = Scenario.resumed_id r in
  let algo, adv, fault =
    match String.split_on_char '/' id with
    | [ _; a; b; c ] -> (a, b, c)
    | _ -> (id, "", "")
  in
  Printf.sprintf "%s,%s,%s,%s,%b" algo adv fault (Scenario.resumed_verdict r)
    (Scenario.resumed_passed r)

let is_algo_id id = List.exists (fun a -> a.algo_id = id) algorithms
let algo_ids () = List.map (fun a -> a.algo_id) algorithms
