(* Tests for the fault-injection layer: plan construction and parsing,
   the empty-plan bit-identity guarantee, crash/restart/jam/noise
   semantics inside the engine, conservation under packet loss, replay
   of faulted runs, and the leaky-bucket bound when the adversary keeps
   injecting into a crashed station. *)

open Mac_channel
module FP = Mac_faults.Fault_plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- plan construction ---- *)

let test_empty_plan () =
  check_bool "empty is empty" true (FP.is_empty FP.empty);
  check_int "empty size" 0 (FP.size FP.empty);
  check_int "empty max_station" (-1) (FP.max_station FP.empty);
  check_int "no actions" 0 (List.length (FP.actions FP.empty ~round:0))

let test_scripted_plan () =
  let p =
    FP.scripted ~name:"demo"
      [ (20, FP.Restart { station = 1 });
        (10, FP.Crash { station = 1; queue = FP.Retain });
        (10, FP.Jam) ]
  in
  check_bool "non-empty" false (FP.is_empty p);
  Alcotest.(check string) "name" "demo" (FP.name p);
  check_int "size" 3 (FP.size p);
  check_int "max_station" 1 (FP.max_station p);
  check_bool "fits two stations" true (FP.for_stations ~n:2 p = Ok p);
  check_bool "refused for one, naming station and n" true
    (FP.for_stations ~n:1 p
     = Error "fault plan demo names station 1, but n = 1");
  check_bool "same-round order preserved" true
    (FP.actions p ~round:10
     = [ FP.Crash { station = 1; queue = FP.Retain }; FP.Jam ]);
  check_bool "restart scheduled" true
    (FP.actions p ~round:20 = [ FP.Restart { station = 1 } ]);
  check_int "quiet round" 0 (List.length (FP.actions p ~round:11))

let test_scripted_rejects_bad_entries () =
  (match FP.scripted ~name:"bad" [ (-1, FP.Jam) ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative round accepted");
  match FP.scripted ~name:"bad" [ (0, FP.Crash { station = -2; queue = FP.Retain }) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative station accepted"

let test_random_plan_deterministic () =
  let build () =
    FP.random ~seed:5 ~n:6 ~rounds:5_000 ~crash_rate:0.003 ~jam_rate:0.001
      ~noise_rate:0.0005 ~restart_after:40 ()
  in
  let p1 = build () and p2 = build () in
  check_int "same size" (FP.size p1) (FP.size p2);
  check_bool "plan has faults at this rate" true (FP.size p1 > 0);
  check_bool "stations in range" true (FP.max_station p1 < 6);
  for r = 0 to 4_999 do
    if not (FP.actions p1 ~round:r = FP.actions p2 ~round:r) then
      Alcotest.failf "plans diverge at round %d" r
  done

let test_random_plan_rejects_bad_args () =
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect_invalid "rate > 1" (fun () ->
      FP.random ~seed:1 ~n:4 ~rounds:10 ~crash_rate:1.5 ());
  expect_invalid "n = 0" (fun () -> FP.random ~seed:1 ~n:0 ~rounds:10 ());
  expect_invalid "negative restart_after" (fun () ->
      FP.random ~seed:1 ~n:4 ~rounds:10 ~restart_after:(-1) ())

(* ---- plan-file parsing ---- *)

let test_parse_good_script () =
  let script =
    "# header comment\n\
     \n\
     crash 10 1\n\
     crash 20 2 drop\n\
     restart 110 1   # trailing comment\n\
     jam 30..32\n\
     noise 40\n"
  in
  match FP.of_string ~name:"file" script with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    check_int "size counts expanded ranges" 7 (FP.size p);
    check_int "max_station" 2 (FP.max_station p);
    check_bool "crash keep by default" true
      (FP.actions p ~round:10 = [ FP.Crash { station = 1; queue = FP.Retain } ]);
    check_bool "crash drop" true
      (FP.actions p ~round:20 = [ FP.Crash { station = 2; queue = FP.Drop } ]);
    check_bool "restart" true
      (FP.actions p ~round:110 = [ FP.Restart { station = 1 } ]);
    check_bool "jam range expands" true
      (FP.actions p ~round:30 = [ FP.Jam ]
       && FP.actions p ~round:31 = [ FP.Jam ]
       && FP.actions p ~round:32 = [ FP.Jam ]);
    check_bool "noise" true (FP.actions p ~round:40 = [ FP.Noise ])

let test_parse_rejects_malformed () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let expect_error_at line script =
    match FP.of_string script with
    | Ok _ -> Alcotest.failf "accepted malformed script %S" script
    | Error msg ->
      check_bool
        (Printf.sprintf "%S reported at line %d (got %S)" script line msg)
        true
        (contains msg (Printf.sprintf "line %d" line))
  in
  expect_error_at 1 "crash 1";
  expect_error_at 1 "crash 1 2 maybe";
  expect_error_at 1 "jam 5..3";
  expect_error_at 1 "crash -1 0";
  expect_error_at 1 "flood 1";
  expect_error_at 2 "jam 1\nnoise\n";
  expect_error_at 3 "crash 1 0\ncrash 2 1\nrestart 3\n";
  (* a range longer than max_int rounds, and a plan whose total size
     passes max_int *)
  expect_error_at 1 (Printf.sprintf "jam 0..%d" max_int);
  expect_error_at 2 (Printf.sprintf "jam 1..%d\nnoise 0..5" max_int)

(* A range is one interval, not one entry per round: parsing a
   million-round range allocates a few words, not a million entries. *)
let test_range_parse_is_bounded () =
  let before = Gc.minor_words () in
  let plan = FP.of_string "jam 0..1000000" in
  let words = Gc.minor_words () -. before in
  (match plan with
   | Ok p ->
     check_int "size counts every round" 1_000_001 (FP.size p);
     check_bool "last round jammed" true
       (FP.actions p ~round:1_000_000 = [ FP.Jam ]);
     check_bool "nothing after it" true
       (FP.next_action_round p ~round:1_000_001 = None)
   | Error msg -> Alcotest.fail msg);
  check_bool
    (Printf.sprintf "fewer than 10,000 minor words (got %.0f)" words)
    true (words < 10_000.)

(* Random scripts mixing crash/restart points with overlapping jam and
   noise ranges: the parsed plan and the plan scripted from the per-round
   expansion both match a naive reading of that expansion, round by
   round. *)
let qcheck_ranges_match_expansion =
  let open QCheck.Gen in
  let round = int_bound 299 and station = int_bound 7 in
  let directive =
    frequency
      [ (2, map3 (fun r s drop -> `Crash (r, s, drop)) round station bool);
        (1, map2 (fun r s -> `Restart (r, s)) round station);
        (4, map3 (fun jam lo len -> `Range (jam, lo, lo + len)) bool round
              (int_bound 60)) ]
  in
  let line = function
    | `Crash (r, s, drop) ->
      Printf.sprintf "crash %d %d %s" r s (if drop then "drop" else "keep")
    | `Restart (r, s) -> Printf.sprintf "restart %d %d" r s
    | `Range (jam, lo, hi) ->
      Printf.sprintf "%s %s"
        (if jam then "jam" else "noise")
        (if lo = hi then string_of_int lo else Printf.sprintf "%d..%d" lo hi)
  in
  let expand = function
    | `Crash (r, s, drop) ->
      let queue = if drop then FP.Drop else FP.Retain in
      [ (r, FP.Crash { station = s; queue }) ]
    | `Restart (r, s) -> [ (r, FP.Restart { station = s }) ]
    | `Range (jam, lo, hi) ->
      let action = if jam then FP.Jam else FP.Noise in
      List.init (hi - lo + 1) (fun i -> (lo + i, action))
  in
  let script ds = String.concat "\n" (List.map line ds) in
  QCheck.Test.make ~name:"ranged_plan_matches_its_expansion" ~count:200
    (QCheck.make ~print:script (list_size (int_range 1 12) directive))
    (fun ds ->
      let entries = List.concat_map expand ds in
      let at r =
        List.filter_map (fun (r', a) -> if r' = r then Some a else None) entries
      in
      let points l =
        List.filter (function FP.Crash _ | FP.Restart _ -> true | _ -> false) l
      in
      let agrees p =
        FP.size p = List.length entries
        && FP.max_station p
           = List.fold_left
               (fun m (_, a) ->
                 match a with
                 | FP.Crash { station; _ } | FP.Restart { station } ->
                   max m station
                 | FP.Jam | FP.Noise -> m)
               (-1) entries
        && List.for_all
             (fun r ->
               let got = FP.actions p ~round:r in
               FP.next_action_round p ~round:r
               = List.fold_left
                   (fun acc (r', _) ->
                     if r' < r then acc
                     else Some (match acc with Some m -> min m r' | None -> r'))
                   None entries
               && points got = points (at r)
               && List.mem FP.Jam got = List.mem FP.Jam (at r)
               && List.mem FP.Noise got = List.mem FP.Noise (at r))
             (List.init 400 Fun.id)
      in
      match FP.of_string (script ds) with
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg
      | Ok parsed ->
        agrees parsed && agrees (FP.scripted ~name:"expanded" entries))

let test_plan_file_missing () =
  match FP.of_file "/nonexistent/eear-fault-plan" with
  | Ok _ -> Alcotest.fail "read a plan from a missing file"
  | Error msg -> check_bool "one-line error" false (String.contains msg '\n')

(* ---- engine integration ---- *)

let run ?(faults = None) ?(strict = true) ?(sink = None) ~algorithm ~n ~k
    ~rate ~burst ~pattern ~rounds ~drain () =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.of_float rate)
      ~burst:(Mac_channel.Qrat.of_float burst) pattern
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      drain_limit = drain; strict; sink; faults }
  in
  Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary ~rounds ()

(* Run while recording the full event stream, as in test_events.ml. *)
let record_run ?(faults = None) ?(strict = true) ~algorithm ~n ~k ~rate ~burst
    ~pattern ~rounds ~drain () =
  let path = Filename.temp_file "eear_faults" ".jsonl" in
  let sink = Mac_sim.Sink.jsonl_file path in
  let summary =
    Fun.protect
      ~finally:(fun () -> Mac_sim.Sink.close sink)
      (fun () ->
        run ~faults ~strict ~sink:(Some sink) ~algorithm ~n ~k ~rate ~burst
          ~pattern ~rounds ~drain ())
  in
  let events = ref [] in
  let ic = open_in path in
  (try
     while true do
       match Event.of_json_line (input_line ic) with
       | Ok entry -> events := entry :: !events
       | Error msg -> Alcotest.failf "bad line in recording: %s" msg
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (summary, List.rev !events)

let conservation (s : Mac_sim.Metrics.summary) =
  s.injected = s.delivered + s.final_total_queue + s.faults.lost_to_crash

(* The acceptance gate: an empty plan leaves BOTH the summary and the
   event stream bit-identical to a run with no plan at all. *)
let test_empty_plan_bit_identical () =
  let go faults =
    record_run ~faults ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2
      ~rate:0.7 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:23)
      ~rounds:1_500 ~drain:500 ()
  in
  let s_none, e_none = go None in
  let s_empty, e_empty = go (Some FP.empty) in
  check_bool "summaries identical" true (s_none = s_empty);
  check_int "same stream length" (List.length e_none) (List.length e_empty);
  check_bool "event streams identical" true (e_none = e_empty);
  check_bool "no fault counters" true (Mac_sim.Metrics.no_faults s_none)

let test_same_plan_same_seed_deterministic () =
  let go () =
    let plan =
      FP.random ~seed:11 ~n:6 ~rounds:2_000 ~crash_rate:0.002 ~jam_rate:0.002
        ~noise_rate:0.001 ~restart_after:100 ()
    in
    run ~faults:(Some plan) ~strict:false
      ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2 ~rate:0.7 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:23) ~rounds:2_000
      ~drain:500 ()
  in
  check_bool "identical summaries across runs" true (go () = go ())

let test_crash_stop_keeps_queue () =
  let s =
    run
      ~faults:
        (Some
           (FP.scripted ~name:"stop"
              [ (400, FP.Crash { station = 1; queue = FP.Retain }) ]))
      ~strict:false ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2
      ~rate:0.5 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.flood ~n:6 ~victim:1) ~rounds:2_000
      ~drain:1_000 ()
  in
  let f = s.faults in
  check_int "one crash" 1 f.crashes;
  check_int "no restart" 0 f.restarts;
  check_int "retained queue loses nothing" 0 f.lost_to_crash;
  check_int "fault round recorded" 400 f.last_fault_round;
  check_bool "conservation" true (conservation s);
  check_bool "backlog grows after the source dies" true
    (f.post_fault_peak_queue > f.pre_fault_queue);
  check_int "never recovers" (-1) f.recovery_rounds

let test_crash_drop_counts_lost () =
  (* burst 8 floods station 1's queue at round 0; crashing it at round 3
     with the drop policy must lose at least the packets not yet served. *)
  let s =
    run
      ~faults:
        (Some
           (FP.scripted ~name:"drop"
              [ (3, FP.Crash { station = 1; queue = FP.Drop }) ]))
      ~strict:false ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2
      ~rate:0.9 ~burst:8.0
      ~pattern:(Mac_adversary.Pattern.flood ~n:6 ~victim:1) ~rounds:500
      ~drain:0 ()
  in
  let f = s.faults in
  check_bool "packets were lost" true (f.lost_to_crash > 0);
  check_bool "loss is explicit, not silent" true (conservation s);
  check_int "undelivered = injected - delivered" (s.injected - s.delivered)
    s.undelivered

(* Restart tolerance is an algorithm property, and the engine's
   fresh-state restart exposes it faithfully. k-cycle's schedule is a
   pure function of the round, so a restarted station falls straight
   back into its slots and serves its retained queue. count-hop aligns
   its phase machine by listening to the coordinator; a cold station
   can never rejoin, so for it a crash-restart behaves exactly like a
   crash-stop (see the fault-model section of DESIGN.md). *)
let test_restart_resumes_delivery () =
  let go faults =
    run ~faults ~strict:false
      ~algorithm:(Mac_routing.K_cycle.algorithm ~n:12 ~k:4) ~n:12 ~k:4
      ~rate:0.3 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.flood ~n:12 ~victim:1) ~rounds:2_000
      ~drain:1_000 ()
  in
  let crash = (400, FP.Crash { station = 1; queue = FP.Retain }) in
  let stop = go (Some (FP.scripted ~name:"stop" [ crash ])) in
  let restarted =
    go (Some (FP.scripted ~name:"restart" [ crash; (600, FP.Restart { station = 1 }) ]))
  in
  check_int "restart counted" 1 restarted.faults.restarts;
  check_bool "restarted station delivers its retained queue" true
    (restarted.delivered > stop.delivered);
  check_bool "conservation (stop)" true (conservation stop);
  check_bool "conservation (restart)" true (conservation restarted)

let test_restart_cannot_rejoin_count_hop () =
  let go faults =
    run ~faults ~strict:false ~algorithm:(module Mac_routing.Count_hop) ~n:6
      ~k:2 ~rate:0.5 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.flood ~n:6 ~victim:1) ~rounds:2_000
      ~drain:1_000 ()
  in
  let crash = (400, FP.Crash { station = 1; queue = FP.Retain }) in
  let stop = go (Some (FP.scripted ~name:"stop" [ crash ])) in
  let restarted =
    go (Some (FP.scripted ~name:"restart" [ crash; (600, FP.Restart { station = 1 }) ]))
  in
  check_int "restart counted" 1 restarted.faults.restarts;
  check_bool "a cold count-hop station stays mute: restart = stop" true
    (restarted.delivered = stop.delivered
     && restarted.final_total_queue = stop.final_total_queue);
  check_bool "conservation" true (conservation restarted)

let test_noise_forces_collisions () =
  let s =
    run
      ~faults:
        (Some
           (FP.scripted ~name:"noise"
              (List.init 10 (fun i -> (100 + i, FP.Noise)))))
      ~strict:false ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2
      ~rate:0.3 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:31) ~rounds:2_000
      ~drain:500 ()
  in
  let f = s.faults in
  check_int "every noise round forced" 10 f.noise_rounds;
  check_int "noise rounds are jammed rounds" 10 f.jammed_rounds;
  check_bool "collisions include the forced ones" true
    (s.collision_rounds >= f.jammed_rounds);
  check_bool "conservation" true (conservation s)

let test_jam_window_disrupts () =
  let s =
    run
      ~faults:
        (Some
           (FP.scripted ~name:"jam"
              (List.init 50 (fun i -> (100 + i, FP.Jam)))))
      ~strict:false ~algorithm:(module Mac_routing.Orchestra) ~n:6 ~k:3
      ~rate:0.9 ~burst:8.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:31) ~rounds:2_000
      ~drain:500 ()
  in
  let f = s.faults in
  check_bool "busy channel: some jams bit" true (f.jammed_rounds > 0);
  check_bool "jams only fire on transmissions" true (f.jammed_rounds <= 50);
  check_int "no noise scheduled" 0 f.noise_rounds;
  check_bool "conservation" true (conservation s)

(* ---- replay: a faulted recording reproduces the live summary ---- *)

let faulted_recording () =
  let plan =
    FP.scripted ~name:"mixed"
      ([ (100, FP.Crash { station = 2; queue = FP.Drop });
         (300, FP.Restart { station = 2 });
         (700, FP.Crash { station = 4; queue = FP.Retain }) ]
       @ List.init 20 (fun i -> (400 + i, FP.Jam))
       @ List.init 10 (fun i -> (500 + i, FP.Noise)))
  in
  record_run ~faults:(Some plan) ~strict:false
    ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2 ~rate:0.7 ~burst:4.0
    ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:23) ~rounds:2_000
    ~drain:500 ()

let test_metrics_replay_reconstructs_faulted_summary () =
  let rounds = 2_000 and drain = 500 in
  let summary, events = faulted_recording () in
  let f = summary.faults in
  check_bool "the plan actually bit" true
    (f.crashes = 2 && f.restarts = 1 && f.lost_to_crash > 0
     && f.jammed_rounds > 0);
  let replay =
    Mac_sim.Metrics.create ~algorithm:summary.algorithm
      ~adversary:summary.adversary ~n:summary.n ~k:summary.k
      ~cap:summary.energy_cap
      ~sample_every:(max 1 ((rounds + drain) / 1024))
  in
  List.iter (fun (round, ev) -> Mac_sim.Metrics.observe replay ~round ev) events;
  let rebuilt =
    Mac_sim.Metrics.finalize replay
      ~final_round:(summary.rounds + summary.drain_rounds)
      ~max_queued_age:summary.max_queued_age
  in
  check_bool "whole summary reconstructed, loss counters included" true
    (rebuilt = summary)

let test_jam_events_precede_their_collision () =
  let _, events = faulted_recording () in
  let rec walk = function
    | (r, Event.Round_jammed { transmitters; _ })
      :: ((r', next) :: _ as rest) -> (
      check_int "same round" r r';
      (* a jam over transmissions reads as a collision; a jam over an
         empty channel is counted but the round stays silent *)
      match next with
      | Event.Collision _ -> walk rest
      | Event.Silence when transmitters = 0 -> walk rest
      | _ -> Alcotest.fail "Round_jammed not resolved by Collision/Silence")
    | (_, Event.Round_jammed _) :: _ ->
      Alcotest.fail "Round_jammed not followed by its resolution"
    | _ :: rest -> walk rest
    | [] -> ()
  in
  walk events

(* A jam on a round where nobody transmits: the channel stays silent, but
   the fault is still counted — live and through a metrics replay of the
   recorded stream. (The pre-fix engine dropped these jams silently, so a
   replayed recording could disagree with the live summary.) *)
let test_jam_on_empty_round_counted () =
  let silent =
    Mac_adversary.Pattern.make ~name:"silent"
      (fun ~round:_ ~budget:_ ~view:_ -> [])
  in
  let plan = FP.scripted ~name:"jam-empty" [ (3, FP.Jam) ] in
  let summary, events =
    record_run ~faults:(Some plan)
      ~algorithm:(module Mac_routing.Count_hop) ~n:4 ~k:2 ~rate:0.5 ~burst:2.0
      ~pattern:silent ~rounds:10 ~drain:0 ()
  in
  check_int "the empty-round jam is counted" 1 summary.faults.jammed_rounds;
  check_int "no collision was fabricated" 0 summary.collision_rounds;
  (match
     List.find_opt
       (fun (_, ev) ->
         match ev with
         | Event.Round_jammed { transmitters = 0; noise = false } -> true
         | _ -> false)
       events
   with
  | Some (r, _) -> check_int "jam recorded at its round" 3 r
  | None -> Alcotest.fail "no zero-transmitter Round_jammed in the stream");
  let replay =
    Mac_sim.Metrics.create ~algorithm:summary.algorithm
      ~adversary:summary.adversary ~n:summary.n ~k:summary.k
      ~cap:summary.energy_cap ~sample_every:1
  in
  List.iter (fun (round, ev) -> Mac_sim.Metrics.observe replay ~round ev) events;
  let rebuilt =
    Mac_sim.Metrics.finalize replay
      ~final_round:(summary.rounds + summary.drain_rounds)
      ~max_queued_age:summary.max_queued_age
  in
  check_int "replay agrees on jammed rounds" summary.faults.jammed_rounds
    rebuilt.faults.jammed_rounds;
  check_bool "replay reconstructs the whole summary" true (rebuilt = summary)

(* ---- admission under faults: the bucket bound survives a crash ---- *)

(* The leaky-bucket window constraint is a property of admission, not of
   the stations: even when every injection targets a crashed station, the
   total admitted must respect rate * t + burst, and every admitted packet
   must be classified (delivered, still queued, or lost-to-crash) —
   never silently dropped. *)
let bucket_bound_under_crash =
  QCheck.Test.make ~name:"bucket_bound_holds_into_crashed_station" ~count:25
    QCheck.(pair (pair (int_range 1 9) (int_range 10 20)) (pair (int_range 1 5) (int_range 2 8)))
    (fun ((rn, rd), (bi, bd)) ->
      (* small exact rationals through the float shim: rate in (0, 0.9],
         burst in (1, 6) *)
      let rate = float_of_int rn /. float_of_int rd in
      let burst = float_of_int bi +. (1.0 /. float_of_int bd) in
      let rounds = 300 in
      let plan =
        FP.scripted ~name:"qcheck-crash"
          [ (50, FP.Crash { station = 1; queue = FP.Drop }) ]
      in
      let s =
        run ~faults:(Some plan) ~strict:false
          ~algorithm:(module Mac_routing.Count_hop) ~n:5 ~k:2 ~rate ~burst
          ~pattern:(Mac_adversary.Pattern.flood ~n:5 ~victim:1) ~rounds
          ~drain:0 ()
      in
      float_of_int s.injected <= (rate *. float_of_int rounds) +. burst +. 1e-9
      && conservation s)

let () =
  Alcotest.run "faults"
    [ ("plan",
       [ Alcotest.test_case "empty" `Quick test_empty_plan;
         Alcotest.test_case "scripted" `Quick test_scripted_plan;
         Alcotest.test_case "scripted bad entries" `Quick
           test_scripted_rejects_bad_entries;
         Alcotest.test_case "random deterministic" `Quick
           test_random_plan_deterministic;
         Alcotest.test_case "random bad args" `Quick
           test_random_plan_rejects_bad_args ]);
      ("parse",
       [ Alcotest.test_case "good script" `Quick test_parse_good_script;
         Alcotest.test_case "rejects malformed" `Quick
           test_parse_rejects_malformed;
         Alcotest.test_case "missing file" `Quick test_plan_file_missing;
         Alcotest.test_case "ranges stay intervals" `Quick
           test_range_parse_is_bounded;
         QCheck_alcotest.to_alcotest qcheck_ranges_match_expansion ]);
      ("engine",
       [ Alcotest.test_case "empty plan bit-identical" `Quick
           test_empty_plan_bit_identical;
         Alcotest.test_case "same plan same seed" `Quick
           test_same_plan_same_seed_deterministic;
         Alcotest.test_case "crash-stop keeps queue" `Quick
           test_crash_stop_keeps_queue;
         Alcotest.test_case "crash-drop counts lost" `Quick
           test_crash_drop_counts_lost;
         Alcotest.test_case "restart resumes" `Quick
           test_restart_resumes_delivery;
         Alcotest.test_case "restart cannot rejoin count-hop" `Quick
           test_restart_cannot_rejoin_count_hop;
         Alcotest.test_case "noise forces collisions" `Quick
           test_noise_forces_collisions;
         Alcotest.test_case "jam window" `Quick test_jam_window_disrupts ]);
      ("replay",
       [ Alcotest.test_case "metrics replay reconstructs" `Quick
           test_metrics_replay_reconstructs_faulted_summary;
         Alcotest.test_case "jam precedes collision" `Quick
           test_jam_events_precede_their_collision;
         Alcotest.test_case "jam on empty round counted" `Quick
           test_jam_on_empty_round_counted ]);
      ("admission",
       [ QCheck_alcotest.to_alcotest bucket_bound_under_crash ]) ]
