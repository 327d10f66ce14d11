(* The benchmark harness: regenerates every row of the paper's Table 1 and
   the derived figure sweeps (F1-F4), printing measured values against the
   instantiated bounds, then times the simulator itself with Bechamel (one
   Test.make per table row / figure).

   Usage: main.exe [--quick] [--jobs N] [table1] [matrix] [figures]
          [ablations] [micro] [speed]
   With no section arguments, every section runs. [--jobs N] (default: the
   machine's recommended domain count) fans the experiment suites out over
   a worker pool; results are bit-identical to a sequential run. *)

let fmt = Mac_sim.Report.fmt_float

(* BENCH_*.json always land at the repository root (the directory holding
   dune-project), wherever the harness was launched from — CI archives
   them by that fixed path. Falls back to the cwd outside a checkout. *)
let repo_root =
  lazy
    (let rec up dir =
       if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
       else
         let parent = Filename.dirname dir in
         if parent = dir then None else up parent
     in
     match up (Sys.getcwd ()) with Some d -> d | None -> Sys.getcwd ())

let output_path name = Filename.concat (Lazy.force repo_root) name

let check_cell (c : Mac_experiments.Scenario.check) =
  let body =
    if Float.is_finite c.bound then
      Printf.sprintf "%s %s/%s" c.label (fmt c.measured) (fmt c.bound)
    else c.label
  in
  Printf.sprintf "%s[%s]" body (if c.ok then "ok" else "FAIL")

let outcome_row (o : Mac_experiments.Scenario.outcome) =
  let s = o.summary and sp = o.spec in
  [ sp.id;
    string_of_int sp.n;
    string_of_int sp.k;
    Mac_channel.Qrat.to_string sp.rate;
    Mac_channel.Qrat.to_string sp.burst;
    Mac_sim.Stability.verdict_to_string o.stability.verdict;
    string_of_int s.max_total_queue;
    string_of_int (max s.max_delay s.max_queued_age);
    string_of_int s.max_on;
    String.concat " " (List.map check_cell o.checks);
    (if o.passed then "PASS" else "FAIL") ]

let write_table1_json rows =
  let path = output_path "BENCH_table1.json" in
  let body = "[\n" ^ String.concat ",\n" rows ^ "\n]\n" in
  Mac_sim.Export.write_file ~path body;
  Printf.printf "wrote %s (%d scenarios)\n\n" path (List.length rows)

(* The bench runs plain sweeps: default policy, no resume directory, so
   every cell comes back [Fresh] or the sweep raised. *)
let sweep_outcomes ?telemetry ~scale ~jobs row =
  List.map
    (function
      | _, Ok (Mac_experiments.Scenario.Fresh o) -> o
      | cid, Ok (Mac_experiments.Scenario.Cached _) ->
        failwith (cid ^ ": cached outcome without a resume directory")
      | cid, Error err ->
        failwith (cid ^ ": " ^ Mac_sim.Supervisor.error_to_string err))
    (Mac_experiments.Table1.sweep ?telemetry ~jobs ~scale row ())

let print_table1 ~scale ~jobs =
  print_endline "=== Table 1: per-row empirical validation ===";
  print_newline ();
  let failures = ref 0 in
  let json_rows = ref [] in
  List.iter
    (fun (exp : Mac_experiments.Table1.t) ->
      Printf.printf "--- %s ---\n%s\n" exp.id exp.claim;
      let outcomes = sweep_outcomes ~jobs ~scale exp in
      let report =
        Mac_sim.Report.create
          ~header:
            [ "scenario"; "n"; "k"; "rho"; "beta"; "verdict"; "max-q";
              "worst-delay"; "max-on"; "checks"; "status" ]
      in
      List.iter
        (fun o ->
          if not o.Mac_experiments.Scenario.passed then incr failures;
          json_rows :=
            Mac_experiments.Scenario.outcome_json ~experiment:exp.id o
            :: !json_rows;
          Mac_sim.Report.add_row report (outcome_row o))
        outcomes;
      Mac_sim.Report.print report;
      print_newline ())
    Mac_experiments.Table1.all;
  Printf.printf "Table 1 scenarios failing their checks: %d\n" !failures;
  write_table1_json (List.rev !json_rows)

let write_matrix_json rows =
  let path = output_path "BENCH_matrix.json" in
  let body = "[\n" ^ String.concat ",\n" rows ^ "\n]\n" in
  Mac_sim.Export.write_file ~path body;
  Printf.printf "wrote %s (%d rows)\n\n" path (List.length rows)

let print_matrix ~scale ~jobs =
  print_endline
    "=== Cross-paper matrix: algorithm x adversary x fault plan ===";
  print_newline ();
  let e = Mac_experiments.Matrix.row in
  Printf.printf "--- %s ---\n%s\n" e.id e.claim;
  let json_rows = ref [] in
  let report =
    Mac_sim.Report.create
      ~header:
        [ "cell"; "n"; "k"; "rho"; "beta"; "verdict"; "max-q"; "worst-delay";
          "delivered"; "status" ]
  in
  List.iter
    (fun (o : Mac_experiments.Scenario.outcome) ->
      let s = o.summary and sp = o.spec in
      json_rows :=
        Mac_experiments.Scenario.outcome_json ~experiment:e.id o :: !json_rows;
      Mac_sim.Report.add_row report
        [ sp.id;
          string_of_int sp.n;
          string_of_int sp.k;
          Mac_channel.Qrat.to_string sp.rate;
          Mac_channel.Qrat.to_string sp.burst;
          Mac_sim.Stability.verdict_to_string o.stability.verdict;
          string_of_int s.max_total_queue;
          string_of_int (max s.max_delay s.max_queued_age);
          Printf.sprintf "%d/%d" s.delivered s.injected;
          (if o.passed then "PASS" else "FAIL") ])
    (sweep_outcomes ~jobs ~scale e);
  Mac_sim.Report.print report;
  print_newline ();
  print_endline "--- stability frontiers (clean channel) ---";
  List.iter
    (fun (label, outcome) ->
      match outcome with
      | Ok f ->
        json_rows :=
          Mac_experiments.Matrix.frontier_json ~label f :: !json_rows;
        Printf.printf "  %-40s %s\n" label
          (Mac_experiments.Matrix.frontier_to_string f)
      | Error err ->
        Printf.printf "  %-40s FAILED %s\n" label
          (Mac_sim.Supervisor.error_to_string err))
    (Mac_experiments.Matrix.thresholds ~jobs ~scale ());
  print_newline ();
  write_matrix_json (List.rev !json_rows)

let print_figures ~scale ~jobs =
  print_endline "=== Figures: sweep series ===";
  print_newline ();
  List.iter
    (fun (fig : Mac_experiments.Figures.t) ->
      Printf.printf "--- %s ---\n%s\n" fig.id fig.title;
      Mac_sim.Report.print (fig.run ~jobs ~scale ()).report;
      print_newline ())
    Mac_experiments.Figures.all

let print_ablations ~scale ~jobs =
  print_endline "=== Ablations: the design choices, removed one at a time ===";
  print_newline ();
  List.iter
    (fun (ab : Mac_experiments.Ablations.t) ->
      Printf.printf "--- %s ---\n%s\n" ab.id ab.title;
      let report, _ = ab.run ~jobs ~scale () in
      Mac_sim.Report.print report;
      print_newline ())
    Mac_experiments.Ablations.all

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: wall-clock cost of simulating each
   configuration for a fixed number of rounds. *)

type sim_config = {
  name : string;
  algorithm : unit -> Mac_channel.Algorithm.t;
  n : int;
  k : int;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pattern : unit -> Mac_adversary.Pattern.t;
}

let run_config c ~rounds =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:c.rate ~burst:c.burst (c.pattern ())
  in
  ignore
    (Mac_sim.Engine.run ~algorithm:(c.algorithm ()) ~n:c.n ~k:c.k ~adversary
       ~rounds ())

let sim_config ~name ~algorithm ~n ~k ~rate ~burst ~pattern =
  { name; algorithm; n; k; rate; burst; pattern }

let sim_configs =
  let n = 8 in
  let q = Mac_channel.Qrat.make and two = Mac_channel.Qrat.of_int 2 in
  [ sim_config ~name:"T1.orchestra" ~algorithm:(fun () -> (module Mac_routing.Orchestra : Mac_channel.Algorithm.S))
      ~n ~k:3 ~rate:Mac_channel.Qrat.one ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.flood ~n ~victim:2);
    sim_config ~name:"T1.count-hop" ~algorithm:(fun () -> (module Mac_routing.Count_hop))
      ~n ~k:2 ~rate:(q 4 5) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n ~seed:1);
    sim_config ~name:"T1.adjust-window"
      ~algorithm:(fun () -> (module Mac_routing.Adjust_window)) ~n:4 ~k:2
      ~rate:(q 1 2) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n:4 ~seed:2);
    sim_config ~name:"T1.k-cycle"
      ~algorithm:(fun () -> Mac_routing.K_cycle.algorithm ~n:12 ~k:4) ~n:12 ~k:4
      ~rate:(q 13 100) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n:12 ~seed:3);
    sim_config ~name:"T1.k-clique"
      ~algorithm:(fun () -> Mac_routing.K_clique.algorithm ~n:12 ~k:4) ~n:12
      ~k:4 ~rate:(q 3 100) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n:12 ~seed:4);
    sim_config ~name:"T1.k-subsets"
      ~algorithm:(fun () -> Mac_routing.K_subsets.algorithm ~n:8 ~k:3 ()) ~n:8
      ~k:3 ~rate:(q 1 10) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2);
    sim_config ~name:"F.baseline-pair-tdma"
      ~algorithm:(fun () -> (module Mac_routing.Pair_tdma)) ~n ~k:2
      ~rate:(q 3 100) ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n ~seed:5);
    sim_config ~name:"F.substrate-mbtf"
      ~algorithm:(fun () -> (module Mac_broadcast.Mbtf)) ~n ~k:n
      ~rate:Mac_channel.Qrat.one ~burst:two
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n ~seed:6) ]

let micro_tests () =
  List.map
    (fun c ->
      Bechamel.Test.make ~name:c.name
        (Bechamel.Staged.stage (fun () -> run_config c ~rounds:4_000)))
    sim_configs

let print_micro () =
  print_endline "=== Bechamel micro-benchmarks (4000 simulated rounds each) ===";
  print_newline ();
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:true
      ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"sim" ~fmt:"%s/%s" (micro_tests ()))
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let report =
    Mac_sim.Report.create
      ~header:[ "benchmark"; "time/4k rounds"; "rounds/s"; "r^2" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) ->
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        rows :=
          ( name,
            [ name; Printf.sprintf "%.2f ms" (t /. 1e6);
              Printf.sprintf "%.0f" (4_000.0 /. (t /. 1e9)); r2 ] )
          :: !rows
      | Some [] | None -> ())
    results;
  List.iter
    (fun (_, row) -> Mac_sim.Report.add_row report row)
    (List.sort compare !rows);
  Mac_sim.Report.print report;
  print_newline ()


(* ------------------------------------------------------------------ *)
(* Perf-regression section: wall-clock and allocation rate of the raw
   round loop per algorithm, plus the sequential-vs-parallel wall clock
   of a whole Table-1 regeneration. Written to BENCH_perf.json so CI can
   archive the numbers run over run. *)

type loop_sample = {
  sname : string;
  srounds : int;
  seconds : float;
  minor_words_per_round : float;
}

(* Wall-clock timings are noisy (scheduler neighbours, GC phase, turbo
   states): a single sample once reported telemetry overhead at -8.1%.
   Every timing below therefore runs three times and reports the median
   — robust to one outlier in either direction. *)
let median3 f =
  let samples = [| f (); f (); f () |] in
  Array.sort compare samples;
  samples.(1)

let time_config c ~rounds =
  (* Warm-up pass so the first measured run pays no one-time costs. *)
  run_config c ~rounds:(min rounds 1_000);
  let once () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    run_config c ~rounds;
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    (t1 -. t0, (w1 -. w0) /. float_of_int rounds)
  in
  let seconds, minor = median3 once in
  { sname = c.name; srounds = rounds; seconds;
    minor_words_per_round = minor }

let time_table1 ?telemetry ~scale ~jobs () =
  median3 (fun () ->
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun (exp : Mac_experiments.Table1.t) ->
          ignore (sweep_outcomes ?telemetry ~jobs ~scale exp))
        Mac_experiments.Table1.all;
      Unix.gettimeofday () -. t0)

let loop_sample_json s =
  Printf.sprintf
    "{\"name\": \"%s\", \"rounds\": %d, \"seconds\": %.6f, \
     \"rounds_per_sec\": %.0f, \"minor_words_per_round\": %.1f}"
    (Mac_sim.Export.json_escape s.sname)
    s.srounds s.seconds
    (float_of_int s.srounds /. s.seconds)
    s.minor_words_per_round

(* ------------------------------------------------------------------ *)
(* Sparse engine: dense vs sparse wall clock on the stable pair-TDMA
   scenario (bit-identical summaries asserted), plus a huge-n
   feasibility row the dense engine cannot reach in reasonable time. *)

let sparse_run ~mode ~n ~rounds =
  let adversary =
    Mac_adversary.Adversary.create_q
      ~rate:(Mac_channel.Qrat.make 3 100)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n ~seed:5)
  in
  let config = { (Mac_sim.Engine.default_config ~rounds) with mode } in
  Mac_sim.Engine.run ~config
    ~algorithm:(module Mac_routing.Pair_tdma : Mac_channel.Algorithm.S)
    ~n ~k:2 ~adversary ~rounds ()

let time_sparse_run ~mode ~n ~rounds =
  median3 (fun () ->
      let t0 = Unix.gettimeofday () in
      ignore (sparse_run ~mode ~n ~rounds);
      Unix.gettimeofday () -. t0)

type sparse_row = {
  rn : int;
  rrounds : int;
  dense_seconds : float option; (* None: dense not attempted (huge n) *)
  sparse_seconds : float;
  identical : bool option;      (* None when dense was not run *)
}

let sparse_rows ~scale =
  (* The feasibility row is sparse-only and cheap at any scale: n=10^5
     stations, infeasible densely, is ~0.15s sparse. *)
  let pairs, feas_n, feas_rounds =
    match scale with
    | `Quick -> ([ (16, 60_000) ], 100_000, 50_000)
    | `Full -> ([ (16, 400_000); (64, 400_000) ], 100_000, 50_000)
  in
  let compared =
    List.map
      (fun (n, rounds) ->
        let d = sparse_run ~mode:Mac_sim.Engine.Dense ~n ~rounds in
        let s = sparse_run ~mode:Mac_sim.Engine.Sparse ~n ~rounds in
        let identical = Marshal.to_string d [] = Marshal.to_string s [] in
        { rn = n; rrounds = rounds;
          dense_seconds =
            Some (time_sparse_run ~mode:Mac_sim.Engine.Dense ~n ~rounds);
          sparse_seconds = time_sparse_run ~mode:Mac_sim.Engine.Sparse ~n ~rounds;
          identical = Some identical })
      pairs
  in
  compared
  @ [ { rn = feas_n; rrounds = feas_rounds; dense_seconds = None;
        sparse_seconds =
          time_sparse_run ~mode:Mac_sim.Engine.Sparse ~n:feas_n
            ~rounds:feas_rounds;
        identical = None } ]

let sparse_row_json r =
  let dense, speedup =
    match r.dense_seconds with
    | Some d ->
      ( Printf.sprintf "%.6f" d,
        Printf.sprintf "%.2f" (d /. r.sparse_seconds) )
    | None -> ("null", "null")
  in
  Printf.sprintf
    "{\"name\": \"pair-tdma\", \"n\": %d, \"rounds\": %d, \
     \"dense_seconds\": %s, \"sparse_seconds\": %.6f, \
     \"sparse_rounds_per_sec\": %.0f, \"speedup\": %s, \"identical\": %s}"
    r.rn r.rrounds dense r.sparse_seconds
    (float_of_int r.rrounds /. r.sparse_seconds)
    speedup
    (match r.identical with
     | Some true -> "true"
     | Some false -> "false"
     | None -> "null")

let print_sparse_rows rows =
  print_endline "--- sparse engine vs dense (pair-TDMA, stable) ---";
  let report =
    Mac_sim.Report.create
      ~header:
        [ "n"; "rounds"; "dense s"; "sparse s"; "sparse rounds/s"; "speedup";
          "identical" ]
  in
  List.iter
    (fun r ->
      Mac_sim.Report.add_row report
        [ string_of_int r.rn; string_of_int r.rrounds;
          (match r.dense_seconds with
           | Some d -> Printf.sprintf "%.3f" d
           | None -> "-");
          Printf.sprintf "%.3f" r.sparse_seconds;
          Printf.sprintf "%.0f" (float_of_int r.rrounds /. r.sparse_seconds);
          (match r.dense_seconds with
           | Some d -> Printf.sprintf "%.1fx" (d /. r.sparse_seconds)
           | None -> "-");
          (match r.identical with
           | Some b -> string_of_bool b
           | None -> "-") ])
    rows;
  Mac_sim.Report.print report;
  List.iter
    (fun r ->
      match r.identical with
      | Some false ->
        failwith
          (Printf.sprintf
             "sparse/dense summaries differ at n=%d — certification bug" r.rn)
      | _ -> ())
    rows;
  print_newline ()

let print_speed ~scale ~jobs =
  Printf.printf "=== Speed: round-loop and pool throughput (jobs=%d) ===\n\n"
    jobs;
  let rounds = match scale with `Quick -> 50_000 | `Full -> 400_000 in
  let samples = List.map (time_config ~rounds) sim_configs in
  let report =
    Mac_sim.Report.create
      ~header:[ "algorithm"; "rounds"; "seconds"; "rounds/s"; "minor w/round" ]
  in
  List.iter
    (fun s ->
      Mac_sim.Report.add_row report
        [ s.sname; string_of_int s.srounds; Printf.sprintf "%.3f" s.seconds;
          Printf.sprintf "%.0f" (float_of_int s.srounds /. s.seconds);
          Printf.sprintf "%.1f" s.minor_words_per_round ])
    samples;
  Mac_sim.Report.print report;
  print_newline ();
  let sequential = time_table1 ~scale ~jobs:1 () in
  let parallel = time_table1 ~scale ~jobs () in
  let speedup = sequential /. parallel in
  Printf.printf
    "Table 1 wall clock: sequential %.2fs, parallel (jobs=%d) %.2fs, speedup \
     %.2fx\n"
    sequential jobs parallel speedup;
  (* Telemetry cost over the same catalog: probes at the default cadence,
     no exposition files, so this isolates the sampling overhead the
     engine adds (the acceptance bar is <= 5%). *)
  let telemetry_every = 1000 in
  let fleet = Mac_sim.Telemetry.Fleet.create ~every:telemetry_every () in
  let telemetry_seconds = time_table1 ~telemetry:fleet ~scale ~jobs:1 () in
  let overhead_pct =
    if sequential > 0.0 then
      100.0 *. (telemetry_seconds -. sequential) /. sequential
    else 0.0
  in
  Printf.printf
    "Table 1 with telemetry (cadence %d): %.2fs sequential, overhead %+.1f%%\n\n"
    telemetry_every telemetry_seconds overhead_pct;
  let sparse = sparse_rows ~scale in
  print_sparse_rows sparse;
  let body =
    Printf.sprintf
      "{\n  \"scale\": \"%s\",\n  \"jobs\": %d,\n  \"round_loop\": [\n    \
       %s\n  ],\n  \"table1\": {\"jobs\": %d, \"sequential_seconds\": %.3f, \
       \"parallel_seconds\": %.3f, \"speedup\": %.3f},\n  \
       \"telemetry\": {\"every\": %d, \"sequential_seconds\": %.3f, \
       \"overhead_pct\": %.1f},\n  \"sparse\": [\n    %s\n  ]\n}\n"
      (match scale with `Quick -> "quick" | `Full -> "full")
      jobs
      (String.concat ",\n    " (List.map loop_sample_json samples))
      jobs sequential parallel speedup telemetry_every telemetry_seconds
      overhead_pct
      (String.concat ",\n    " (List.map sparse_row_json sparse))
  in
  let path = output_path "BENCH_perf.json" in
  Mac_sim.Export.write_file ~path body;
  Printf.printf "wrote %s\n\n" path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let scale = if quick then `Quick else `Full in
  let jobs = ref (Mac_sim.Pool.default_jobs ()) in
  let rec strip = function
    | [] -> []
    | "--quick" :: rest -> strip rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
       | Some j when j >= 1 -> jobs := j
       | _ -> failwith "bench: --jobs expects a positive integer");
      strip rest
    | "--jobs" :: [] -> failwith "bench: --jobs expects a positive integer"
    | a :: rest -> a :: strip rest
  in
  let sections = strip args in
  let jobs = !jobs in
  let want s = sections = [] || List.mem s sections in
  Printf.printf
    "Energy Efficient Adversarial Routing in Shared Channels — reproduction \
     harness (%s scale, jobs=%d)\n\n"
    (if quick then "quick" else "full")
    jobs;
  if want "table1" then print_table1 ~scale ~jobs;
  if want "matrix" then print_matrix ~scale ~jobs;
  if want "figures" then print_figures ~scale ~jobs;
  if want "ablations" then print_ablations ~scale ~jobs;
  if want "micro" then print_micro ();
  if want "speed" then print_speed ~scale ~jobs
