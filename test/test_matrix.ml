(* The cross-paper matrix driver: axis coverage, per-cell verdicts, batch
   parity (jobs=1 vs jobs=2), byte-identical resume replay, CSV export and
   the supervised threshold stage. Everything runs on a broadcast-only
   slice (row_for) to keep the suite fast; the full 15-algorithm matrix is
   exercised by the CLI smoke job. *)

module Matrix = Mac_experiments.Matrix
module Scenario = Mac_experiments.Scenario
module Sweep = Mac_experiments.Sweep
module Table1 = Mac_experiments.Table1

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let broadcast_only id =
  List.mem id [ "rrw"; "mbtf"; "fs-tree"; "ack-rr"; "backoff" ]

let test_axes_cover_the_issue_floor () =
  (* The acceptance bar: every registered algorithm (incl. the
     full-sensing and ack-based families) x >= 3 adversaries x >= 2 fault
     plans. *)
  check_bool ">= 15 algorithms" true (List.length Matrix.algorithms >= 15);
  check_bool ">= 3 adversaries" true (List.length Matrix.adversaries >= 3);
  check_bool ">= 2 fault plans" true (List.length Matrix.faults >= 2);
  List.iter
    (fun id ->
      check_bool (id ^ " present") true (Matrix.is_algo_id id))
    Mac_experiments.Registry.names;
  let cells = Matrix.row.cells ~scale:`Quick in
  check_int "full cross product"
    (List.length Matrix.algorithms * List.length Matrix.adversaries
   * List.length Matrix.faults)
    (List.length cells)

let test_cell_ids_parse_back () =
  List.iter
    (fun (c : Mac_experiments.Table1.cell) ->
      match String.split_on_char '/' c.spec.id with
      | [ "matrix"; a; adv; f ] ->
        check_bool "algo id" true (Matrix.is_algo_id a);
        check_bool "adversary id" true
          (List.exists
             (fun (x : Matrix.adversary_axis) -> x.adv_id = adv)
             Matrix.adversaries);
        check_bool "fault id" true
          (List.exists
             (fun (x : Matrix.fault_axis) -> x.fault_id = f)
             Matrix.faults)
      | _ -> Alcotest.failf "unparseable cell id %s" c.spec.id)
    (Matrix.row.cells ~scale:`Quick)

let test_slice_runs_with_verdicts_and_jobs_parity () =
  let e = Matrix.row_for ~only:broadcast_only in
  let run jobs = Helpers.fresh_outcomes (Table1.sweep ~jobs ~scale:`Quick [ e ]) in
  let seq = run 1 in
  let par = run 2 in
  check_int "slice size"
    (5 * List.length Matrix.adversaries * List.length Matrix.faults)
    (List.length seq);
  let rows run = List.map (Scenario.outcome_json ~experiment:e.id) run in
  check_bool "jobs=2 bit-identical to jobs=1" true (rows seq = rows par);
  List.iter
    (fun (o : Scenario.outcome) ->
      check_bool (o.spec.id ^ " has a verdict") true
        (match o.stability.verdict with
        | Mac_sim.Stability.Stable | Mac_sim.Stability.Unstable
        | Mac_sim.Stability.Inconclusive ->
          true);
      check_bool (o.spec.id ^ " completed clean") true o.passed)
    seq;
  (* The single-queue flood must separate the families: TDMA drowns
     (rate 1/2 >> 1/n) while MBTF shrugs it off. *)
  let verdict_of id =
    let o = List.find (fun (o : Scenario.outcome) -> o.spec.id = id) seq in
    o.stability.verdict
  in
  check_bool "ack-rr drowns under burst-flood" true
    (verdict_of "matrix/ack-rr/burst-flood/clean" = Mac_sim.Stability.Unstable);
  check_bool "mbtf absorbs burst-flood" true
    (verdict_of "matrix/mbtf/burst-flood/clean" = Mac_sim.Stability.Stable)

let test_resume_replays_byte_identically () =
  let only id = List.mem id [ "fs-tree"; "ack-rr" ] in
  let e = Matrix.row_for ~only in
  Helpers.with_temp_dir "eear_matrix" (fun dir ->
      let run jobs =
        List.concat_map
          (fun (_, results) ->
            List.map
              (function
                | _, Ok r -> r
                | cid, Error _ -> Alcotest.failf "%s did not complete" cid)
              results)
          (Table1.sweep ~jobs ~resume_dir:dir ~scale:`Quick [ e ])
      in
      let first = run 1 in
      check_bool "first pass all fresh" true
        (List.for_all
           (function Scenario.Fresh _ -> true | Scenario.Cached _ -> false)
           first);
      let second = run 2 in
      check_bool "second pass all cached" true
        (List.for_all
           (function Scenario.Cached _ -> true | Scenario.Fresh _ -> false)
           second);
      let rows run =
        List.map (Scenario.resumed_json ~experiment:e.id) run
      in
      check_bool "JSON rows byte-identical" true (rows first = rows second);
      check_bool "CSV lines byte-identical" true
        (List.map Matrix.csv_line first = List.map Matrix.csv_line second))

let test_csv_lines_parse () =
  let e = Matrix.row_for ~only:(fun id -> id = "backoff") in
  List.iter
    (fun (o : Scenario.outcome) ->
      let line = Matrix.csv_line (Scenario.Fresh o) in
      match String.split_on_char ',' line with
      | [ algo; adv; fault; verdict; passed ] ->
        check_bool "algo column" true (Matrix.is_algo_id algo);
        check_bool "adversary column" true
          (List.exists
             (fun (x : Matrix.adversary_axis) -> x.adv_id = adv)
             Matrix.adversaries);
        check_bool "fault column" true
          (List.exists
             (fun (x : Matrix.fault_axis) -> x.fault_id = fault)
             Matrix.faults);
        check_bool "verdict column nonempty" true (verdict <> "");
        check_bool "passed column boolean" true
          (passed = "true" || passed = "false")
      | _ -> Alcotest.failf "bad csv line %s" line)
    (Helpers.fresh_outcomes (Table1.sweep ~jobs:1 ~scale:`Quick [ e ]))

let test_thresholds_classify_every_pair () =
  (* ack-rr (TDMA): stable at trickle rates against spread traffic, but
     its single-queue frontier sits near 1/n — the bisection must come
     back with a genuine bracket for the flood adversary. *)
  let results =
    Matrix.thresholds ~jobs:2 ~only:(fun id -> id = "ack-rr") ~scale:`Quick ()
  in
  check_int "one threshold per adversary" (List.length Matrix.adversaries)
    (List.length results);
  let flood_label =
    Printf.sprintf "matrix-th/ack-rr/%s"
      (List.nth Matrix.adversaries 1).Matrix.adv_id
  in
  List.iter
    (fun (label, outcome) ->
      match outcome with
      | Error _ -> Alcotest.failf "threshold %s failed" label
      | Ok f ->
        check_bool (label ^ " stringifies") true
          (String.length (Sweep.frontier_to_string f) > 0);
        check_bool (label ^ " exports json") true
          (String.length (Matrix.frontier_json ~label f) > 0);
        if label = flood_label then
          check_bool "flood frontier is a real bracket" true
            (match f with
            | Sweep.Bracket (lo, hi) ->
              Mac_channel.Qrat.(compare lo hi) < 0
            | _ -> false))
    results

let test_thresholds_deterministic () =
  let go () =
    List.map
      (fun (label, outcome) ->
        match outcome with
        | Ok f -> Matrix.frontier_json ~label f
        | Error err -> label ^ ": " ^ Mac_sim.Supervisor.error_to_string err)
      (Matrix.thresholds ~jobs:2 ~only:(fun id -> id = "mbtf") ~scale:`Quick ())
  in
  check_bool "two runs identical" true (go () = go ())

let () =
  Alcotest.run "matrix"
    [ ("axes",
       [ Alcotest.test_case "cover the issue floor" `Quick
           test_axes_cover_the_issue_floor;
         Alcotest.test_case "cell ids parse back" `Quick
           test_cell_ids_parse_back ]);
      ("cells",
       [ Alcotest.test_case "slice runs, verdicts, jobs parity" `Slow
           test_slice_runs_with_verdicts_and_jobs_parity;
         Alcotest.test_case "resume replays byte-identically" `Slow
           test_resume_replays_byte_identically;
         Alcotest.test_case "csv lines parse" `Slow test_csv_lines_parse ]);
      ("thresholds",
       [ Alcotest.test_case "classify every pair" `Slow
           test_thresholds_classify_every_pair;
         Alcotest.test_case "deterministic" `Slow
           test_thresholds_deterministic ]) ]
