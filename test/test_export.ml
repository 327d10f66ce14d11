(* Tests for machine-readable export (CSV/JSON), the engine's event trace,
   and the bisection sweep. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_summary () =
  (* comma-free adversary name so the naive column count below is valid *)
  let adversary =
    Mac_adversary.Adversary.create_q ~name:"uniform-test" ~rate:(Mac_channel.Qrat.make 1 2)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:4 ~seed:3)
  in
  Mac_sim.Engine.run ~algorithm:(module Mac_broadcast.Rrw) ~n:4 ~k:4 ~adversary
    ~rounds:2_000 ()

(* ---- CSV ---- *)

let test_csv_shape () =
  let s = sample_summary () in
  let csv = Mac_sim.Export.summaries_csv [ s; s ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  let width line = List.length (String.split_on_char ',' line) in
  List.iter
    (fun line -> check_int "same column count" (width (List.hd lines)) (width line))
    lines

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_csv_quoting () =
  let s = sample_summary () in
  let crafted = { s with Mac_sim.Metrics.adversary = "a,\"b\"" } in
  check_bool "quotes commas and doubles quotes" true
    (contains ~needle:"\"a,\"\"b\"\"\"" (Mac_sim.Export.summary_csv_row crafted))

let test_series_csv () =
  let s = sample_summary () in
  let rows = String.split_on_char '\n' (String.trim (Mac_sim.Export.series_csv s)) in
  check_int "header + samples"
    (Array.length s.queue_series + 1)
    (List.length rows);
  Alcotest.(check string) "header" "round,total_queued" (List.hd rows)

let test_json_parses_shape () =
  let s = sample_summary () in
  let json = Mac_sim.Export.summary_json s in
  check_bool "object" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  check_bool "has algorithm" true (contains ~needle:"\"algorithm\": \"rrw\"" json);
  check_bool "has violations object" true
    (contains ~needle:"\"violations\": {" json)

let test_json_escaping () =
  let s = sample_summary () in
  let crafted =
    { s with
      Mac_sim.Metrics.algorithm = "al\"go\\rhythm";
      adversary = "line1\nline2\ttab\x01ctl" }
  in
  let json = Mac_sim.Export.summary_json crafted in
  check_bool "one line" true (not (String.contains json '\n'));
  check_bool "no raw control chars" true
    (String.for_all (fun c -> Char.code c >= 0x20) json);
  check_bool "quote escaped" true (contains ~needle:{|al\"go\\rhythm|} json);
  check_bool "newline escaped" true (contains ~needle:{|line1\nline2|} json);
  check_bool "tab escaped" true (contains ~needle:{|line2\ttab|} json);
  check_bool "control char escaped" true (contains ~needle:{|\u0001ctl|} json);
  Alcotest.(check string) "json_escape itself" {|a\"b\\c\nd\u0000\t\r|}
    (Mac_sim.Export.json_escape "a\"b\\c\nd\x00\t\r")

(* Non-finite floats (a zero-delivery run's nan mean, an infinite ratio)
   must never leak into emitted JSON or CSV: "%.6g" alone would print the
   invalid JSON tokens [nan]/[inf]. *)
let test_non_finite_floats () =
  let s = sample_summary () in
  let crafted =
    { s with Mac_sim.Metrics.mean_delay = Float.nan; mean_on = Float.infinity }
  in
  let json = Mac_sim.Export.summary_json crafted in
  check_bool "no nan token" false (contains ~needle:"nan" json);
  check_bool "no inf token" false (contains ~needle:"inf" json);
  check_bool "nan field is null" true
    (contains ~needle:"\"mean_delay\": null" json);
  check_bool "inf field is null" true
    (contains ~needle:"\"mean_on\": null" json);
  let row = Mac_sim.Export.summary_csv_row crafted in
  check_bool "csv renders non-finite as dash" false
    (contains ~needle:"nan" row || contains ~needle:"inf" row);
  Alcotest.(check string) "json_float nan" "null"
    (Mac_sim.Export.json_float Float.nan);
  Alcotest.(check string) "json_float -inf" "null"
    (Mac_sim.Export.json_float Float.neg_infinity);
  Alcotest.(check string) "csv_float nan" "-"
    (Mac_sim.Export.csv_float Float.nan);
  Alcotest.(check string) "csv_float finite" "0.25"
    (Mac_sim.Export.csv_float 0.25);
  Alcotest.(check string) "fmt_float inf" "-"
    (Mac_sim.Report.fmt_float Float.infinity);
  Alcotest.(check string) "fmt_float nan" "-"
    (Mac_sim.Report.fmt_float Float.nan)

let test_json_histogram_field () =
  let s = sample_summary () in
  let json = Mac_sim.Export.summary_json s in
  check_bool "has delay_histogram" true
    (contains ~needle:"\"delay_histogram\": [" json);
  (* bucket counts in the export sum to the deliveries *)
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 s.delay_histogram in
  check_int "histogram covers every delivery" s.delivered total

(* ---- pinned bytes ---- *)

(* Every exported field differs from the fields around it, so a swapped,
   dropped or reordered column changes the bytes. The names carry a
   comma, quotes, a backslash and a newline; the floats are non-finite;
   the fault sentinels read -1; the histogram is non-empty. *)
let crafted : Mac_sim.Metrics.summary =
  { algorithm = "k-cycle \"fast\", v2"; adversary = "flood\\x\nrho=1/2"; n = 7;
    k = 3; rounds = 1000; drain_rounds = 250; injected = 501; delivered = 480;
    undelivered = 21; max_delay = 77; mean_delay = Float.nan; p99_delay = 64;
    delay_histogram = [| (0, 0, 5); (1, 1, 7); (64, 67, 2) |];
    max_queued_age = 33; max_total_queue = 19; final_total_queue = 8;
    max_station_queue = 6; queue_series = [| (0, 0); (1249, 8) |];
    energy_cap = 5; max_on = 2; mean_on = Float.infinity;
    station_rounds = 2400; silent_rounds = 310; light_rounds = 45;
    delivery_rounds = 470; relay_rounds = 12; collision_rounds = 93;
    max_hops = 4; control_bits_total = 9001; control_bits_max = 17;
    violations =
      { cap_exceeded = 11; stranded = 12; adoption_conflicts = 13;
        spurious_adoptions = 14 };
    faults =
      { crashes = 21; restarts = 22; jammed_rounds = 23; noise_rounds = 24;
        lost_to_crash = 25; last_fault_round = -1; pre_fault_queue = 26;
        post_fault_peak_queue = 27; recovery_rounds = -1 } }

let header =
  {|algorithm,adversary,n,k,rounds,drain_rounds,injected,delivered,|}
  ^ {|undelivered,max_delay,mean_delay,p99_delay,max_queued_age,|}
  ^ {|max_total_queue,final_total_queue,max_station_queue,energy_cap,|}
  ^ {|max_on,mean_on,station_rounds,silent_rounds,light_rounds,|}
  ^ {|delivery_rounds,relay_rounds,collision_rounds,max_hops,|}
  ^ {|control_bits_total,control_bits_max,cap_exceeded,stranded,|}
  ^ {|adoption_conflicts,spurious_adoptions,crashes,restarts,|}
  ^ {|jammed_rounds,noise_rounds,lost_to_crash,last_fault_round,|}
  ^ {|pre_fault_queue,post_fault_peak_queue,recovery_rounds|}

let run_row =
  {|rrw,uniform-test,4,4,2000,0,1002,1000,2,8,3.605,7,3,4,2,4,4,4,4,|}
  ^ {|8000,1000,0,1000,0,0,1,0,0,0,0,0,0,0,0,0,0,0,-1,0,0,-1|}

let crafted_row =
  "\"k-cycle \"\"fast\"\", v2\",\"flood\\x\nrho=1/2\","
  ^ {|7,3,1000,250,501,480,21,77,-,64,33,19,8,6,5,2,-,2400,310,45,470,|}
  ^ {|12,93,4,9001,17,11,12,13,14,21,22,23,24,25,-1,26,27,-1|}

let run_json =
  {|{"algorithm": "rrw", "adversary": "uniform-test", "n": 4, |}
  ^ {|"k": 4, "rounds": 2000, "drain_rounds": 0, "injected": 1002, |}
  ^ {|"delivered": 1000, "undelivered": 2, "max_delay": 8, |}
  ^ {|"mean_delay": 3.605, "p99_delay": 7, "max_queued_age": 3, |}
  ^ {|"max_total_queue": 4, "final_total_queue": 2, |}
  ^ {|"max_station_queue": 4, "energy_cap": 4, "max_on": 4, |}
  ^ {|"mean_on": 4, "station_rounds": 8000, "silent_rounds": 1000, |}
  ^ {|"light_rounds": 0, "delivery_rounds": 1000, "relay_rounds": 0, |}
  ^ {|"collision_rounds": 0, "max_hops": 1, "control_bits_total": 0, |}
  ^ {|"control_bits_max": 0, "delay_histogram": [[0, 0, 45], [1, 1, |}
  ^ {|130], [2, 2, 124], [3, 3, 163], [4, 4, 196], [5, 5, 160], [6, |}
  ^ {|6, 129], [7, 7, 44], [8, 8, 9]], |}
  ^ {|"violations": {"cap_exceeded": 0, "stranded": 0, |}
  ^ {|"adoption_conflicts": 0, "spurious_adoptions": 0}, |}
  ^ {|"faults": {"crashes": 0, "restarts": 0, "jammed_rounds": 0, |}
  ^ {|"noise_rounds": 0, "lost_to_crash": 0, "last_fault_round": -1, |}
  ^ {|"pre_fault_queue": 0, "post_fault_peak_queue": 0, |}
  ^ {|"recovery_rounds": -1}}|}

let crafted_json =
  {|{"algorithm": "k-cycle \"fast\", v2", |}
  ^ {|"adversary": "flood\\x\nrho=1/2", "n": 7, "k": 3, |}
  ^ {|"rounds": 1000, "drain_rounds": 250, "injected": 501, |}
  ^ {|"delivered": 480, "undelivered": 21, "max_delay": 77, |}
  ^ {|"mean_delay": null, "p99_delay": 64, "max_queued_age": 33, |}
  ^ {|"max_total_queue": 19, "final_total_queue": 8, |}
  ^ {|"max_station_queue": 6, "energy_cap": 5, "max_on": 2, |}
  ^ {|"mean_on": null, "station_rounds": 2400, "silent_rounds": 310, |}
  ^ {|"light_rounds": 45, "delivery_rounds": 470, "relay_rounds": 12, |}
  ^ {|"collision_rounds": 93, "max_hops": 4, |}
  ^ {|"control_bits_total": 9001, "control_bits_max": 17, |}
  ^ {|"delay_histogram": [[0, 0, 5], [1, 1, 7], [64, 67, 2]], |}
  ^ {|"violations": {"cap_exceeded": 11, "stranded": 12, |}
  ^ {|"adoption_conflicts": 13, "spurious_adoptions": 14}, |}
  ^ {|"faults": {"crashes": 21, "restarts": 22, "jammed_rounds": 23, |}
  ^ {|"noise_rounds": 24, "lost_to_crash": 25, |}
  ^ {|"last_fault_round": -1, "pre_fault_queue": 26, |}
  ^ {|"post_fault_peak_queue": 27, "recovery_rounds": -1}}|}

let test_csv_bytes_pinned () =
  let s = sample_summary () in
  Alcotest.(check string) "fixed run row" run_row
    (Mac_sim.Export.summary_csv_row s);
  Alcotest.(check string) "crafted row" crafted_row
    (Mac_sim.Export.summary_csv_row crafted);
  Alcotest.(check string) "header and rows"
    (String.concat "\n" [ header; crafted_row; run_row; "" ])
    (Mac_sim.Export.summaries_csv [ crafted; s ])

let test_json_bytes_pinned () =
  Alcotest.(check string) "fixed run" run_json
    (Mac_sim.Export.summary_json (sample_summary ()));
  Alcotest.(check string) "crafted" crafted_json
    (Mac_sim.Export.summary_json crafted)

let test_jsonl_lines_valid () =
  let path = Filename.temp_file "eear_events" ".jsonl" in
  let sink = Mac_sim.Sink.jsonl_file path in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 3 5)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:4 ~seed:9)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:200) with sink = Some sink }
  in
  ignore
    (Mac_sim.Engine.run ~config ~algorithm:(module Mac_broadcast.Rrw) ~n:4 ~k:4
       ~adversary ~rounds:200 ());
  Mac_sim.Sink.close sink;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       check_bool "object per line" true
         (String.length line > 2
          && line.[0] = '{'
          && line.[String.length line - 1] = '}');
       match Mac_channel.Event.of_json_line line with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "line %d unparseable: %s" !lines msg
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  check_bool "stream non-empty" true (!lines > 200)

(* ---- engine trace ---- *)

let test_engine_trace_records_events () =
  let trace = Mac_channel.Trace.create ~capacity:100 () in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:4 ~seed:5)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:50) with
      sink = Some (Mac_sim.Sink.ring trace) }
  in
  let s =
    Mac_sim.Engine.run ~config ~algorithm:(module Mac_broadcast.Rrw) ~n:4 ~k:4
      ~adversary ~rounds:50 ()
  in
  let events = Mac_channel.Trace.dump trace in
  check_bool "events recorded" true (events <> []);
  let count prefix =
    List.length
      (List.filter
         (fun (_, e) -> String.length e >= String.length prefix
                        && String.sub e 0 (String.length prefix) = prefix)
         events)
  in
  check_bool "inject events" true (count "inject" > 0);
  check_bool "deliver events consistent" true (count "deliver" <= s.delivered)

let test_engine_no_trace_by_default () =
  (* merely documents that the default config records nothing: a trace
     ring is a sink, and the default config carries none *)
  let cfg = Mac_sim.Engine.default_config ~rounds:10 in
  check_bool "no sink" true (cfg.sink = None)

(* ---- sweep ---- *)

module Q = Mac_channel.Qrat

let test_bisect_narrows () =
  (* synthetic probe: stable below 37/100 *)
  let frontier = Q.make 37 100 in
  let probe ~rho = Q.compare rho frontier < 0 in
  let lo, hi =
    Mac_experiments.Sweep.bisect_q ~steps:10 ~lo:Q.zero ~hi:Q.one probe
  in
  check_bool "brackets the frontier" true
    (Q.compare lo frontier < 0 && Q.compare frontier hi <= 0);
  check_bool "tight" true (Q.equal (Q.sub hi lo) (Q.make 1 1024))

let test_bisect_validates_endpoints () =
  Alcotest.check_raises "lo must be stable"
    (Invalid_argument "Sweep.bisect: not stable at the lower rate") (fun () ->
      ignore
        (Mac_experiments.Sweep.bisect_q ~lo:(Q.make 1 2) ~hi:Q.one (fun ~rho ->
             Q.compare rho (Q.make 7 10) > 0)));
  Alcotest.check_raises "hi must be unstable"
    (Invalid_argument "Sweep.bisect: not unstable at the upper rate") (fun () ->
      ignore
        (Mac_experiments.Sweep.bisect_q ~lo:(Q.make 1 10) ~hi:(Q.make 1 5)
           (fun ~rho:_ -> true)))

(* [frontier] probes each endpoint once: a proper bracket costs
   2 + steps probes and narrows as [bisect_q] does; a degenerate one is
   classified from its endpoints. The heartbeat ticks after every probe. *)
let test_frontier_probes_endpoints_once () =
  let probes = ref 0 and beats = ref 0 in
  let counted stable ~rho =
    incr probes;
    stable rho
  in
  let below = Q.make 37 100 in
  let results =
    List.map
      (fun (label, probe) ->
        ( label,
          Mac_experiments.Sweep.frontier
            { label; lo = Q.zero; hi = Q.one; steps = 10; probe }
            ~heartbeat:(fun () -> incr beats) ))
      [ ("bracket", counted (fun rho -> Q.compare rho below < 0));
        ("ceiling", counted (fun _ -> true));
        ("floor", counted (fun _ -> false)) ]
  in
  Alcotest.(check int) "probes: 2 + 10, then 2, then 1" 15 !probes;
  Alcotest.(check int) "one heartbeat per probe" 15 !beats;
  let lo', hi' =
    Mac_experiments.Sweep.bisect_q ~steps:10 ~lo:Q.zero ~hi:Q.one (fun ~rho ->
        Q.compare rho below < 0)
  in
  match results with
  | [ ("bracket", Mac_experiments.Sweep.Bracket (lo, hi));
      ("ceiling", Stable_to_ceiling c);
      ("floor", Unstable_at_floor f) ] ->
    check_bool "the bracket bisect_q finds" true (Q.equal lo lo' && Q.equal hi hi');
    check_bool "degenerate endpoints kept" true
      (Q.equal c Q.one && Q.equal f Q.zero)
  | _ -> Alcotest.fail "expected a bracket, a ceiling and a floor"

let test_probe_on_pair_tdma () =
  (* pair-tdma's frontier for a (1,2) flood is 1/(n(n-1)) = 1/12 at n=4 *)
  let probe =
    Mac_experiments.Sweep.stability_probe_q
      ~algorithm:(module Mac_routing.Pair_tdma) ~n:4 ~k:2
      ~pattern:(fun () -> Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
      ~rounds:40_000 ()
  in
  let lo, hi =
    Mac_experiments.Sweep.bisect_q ~steps:5 ~lo:(Q.make 1 50) ~hi:(Q.make 3 10)
      probe
  in
  let lo = Q.to_float lo and hi = Q.to_float hi in
  let frontier = 1.0 /. 12.0 in
  check_bool
    (Printf.sprintf "frontier %.4f in [%.4f, %.4f]" frontier lo hi)
    true
    (lo <= frontier +. 0.02 && hi >= frontier -. 0.02)

let () =
  Alcotest.run "export"
    [ ("csv",
       [ Alcotest.test_case "shape" `Quick test_csv_shape;
         Alcotest.test_case "quoting" `Quick test_csv_quoting;
         Alcotest.test_case "series" `Quick test_series_csv;
         Alcotest.test_case "bytes pinned" `Quick test_csv_bytes_pinned ]);
      ("json",
       [ Alcotest.test_case "shape" `Quick test_json_parses_shape;
         Alcotest.test_case "bytes pinned" `Quick test_json_bytes_pinned;
         Alcotest.test_case "escaping" `Quick test_json_escaping;
         Alcotest.test_case "histogram field" `Quick test_json_histogram_field;
         Alcotest.test_case "non-finite floats" `Quick test_non_finite_floats;
         Alcotest.test_case "jsonl lines valid" `Quick test_jsonl_lines_valid ]);
      ("trace",
       [ Alcotest.test_case "records events" `Quick test_engine_trace_records_events;
         Alcotest.test_case "off by default" `Quick test_engine_no_trace_by_default ]);
      ("sweep",
       [ Alcotest.test_case "bisect narrows" `Quick test_bisect_narrows;
         Alcotest.test_case "validates endpoints" `Quick test_bisect_validates_endpoints;
         Alcotest.test_case "frontiers probe endpoints once" `Quick
           test_frontier_probes_endpoints_once;
         Alcotest.test_case "pair-tdma frontier" `Slow test_probe_on_pair_tdma ]) ]
