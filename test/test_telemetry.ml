(* Tests for the telemetry subsystem: registry semantics, exact merges
   (including the histogram merge law), the Prometheus-style exposition
   and its parser, the golden exposition format, fleet aggregation, and
   the engine's sampling cadence. *)

module T = Mac_sim.Telemetry
module H = Mac_sim.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- registry semantics ---- *)

let test_registration_idempotent () =
  let r = T.create () in
  let c1 = T.counter r ~help:"a counter" "c_total" in
  T.add c1 3;
  let c2 = T.counter r "c_total" in
  T.inc c2;
  check_int "same counter behind the name" 4 (T.counter_value c1);
  let g1 = T.gauge r "g" in
  T.set_gauge g1 2.5;
  let g2 = T.gauge r "g" in
  check_bool "same gauge behind the name" true (T.gauge_value g2 = 2.5);
  (* distinct labels are distinct metrics *)
  let cl = T.counter r ~labels:[ ("phase", "x") ] "c_total" in
  T.inc cl;
  check_int "labelled counter is separate" 4 (T.counter_value c1);
  check_int "labelled counter counts alone" 1 (T.counter_value cl)

let test_kind_clash_rejected () =
  let r = T.create () in
  ignore (T.counter r "m");
  (match T.gauge r "m" with
   | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
   | exception Invalid_argument _ -> ());
  match T.histogram r "m" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind clash"
  | exception Invalid_argument _ -> ()

let test_sample_and_find () =
  let r = T.create () in
  let c = T.counter r "c_total" in
  T.add c 7;
  let g = T.gauge r ~labels:[ ("phase", "inject") ] "g" in
  T.set_gauge g 1.5;
  ignore (T.histogram r "h");
  let s = T.sample r in
  check_int "histograms not sampled" 2 (List.length s);
  check_bool "counter by name" true (T.find_sample s "c_total" = Some 7.0);
  check_bool "labelled gauge by rendered name" true
    (T.find_sample s "g{phase=\"inject\"}" = Some 1.5);
  check_bool "missing name" true (T.find_sample s "nope" = None)

(* ---- histogram merge (satellite law) ---- *)

let record_all xs =
  let h = H.create () in
  List.iter (H.record h) xs;
  h

let hist_repr h = (H.buckets h, H.count h, H.max_value h)

let qcheck_histogram_merge_law =
  QCheck.Test.make ~name:"merge (record xs) (record ys) = record (xs @ ys)"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 100) (int_range 0 100_000))
        (list_of_size Gen.(int_range 0 100) (int_range 0 100_000)))
    (fun (xs, ys) ->
      hist_repr (H.merge (record_all xs) (record_all ys))
      = hist_repr (record_all (xs @ ys)))

let test_merge_leaves_inputs_alone () =
  let a = record_all [ 1; 2; 3 ] and b = record_all [ 10; 20 ] in
  let m = H.merge a b in
  check_int "merged count" 5 (H.count m);
  check_int "left input untouched" 3 (H.count a);
  check_int "right input untouched" 2 (H.count b);
  check_int "max merged" 20 (H.max_value m)

(* ---- registry merge ---- *)

let test_merge_into_policies () =
  let a = T.create () in
  let b = T.create () in
  T.add (T.counter a "c_total") 3;
  T.add (T.counter b "c_total") 4;
  T.set_gauge (T.gauge a "sum_g") 1.0;
  T.set_gauge (T.gauge b "sum_g") 2.0;
  T.set_gauge (T.gauge a ~merge:T.Max "max_g") 9.0;
  T.set_gauge (T.gauge b ~merge:T.Max "max_g") 5.0;
  List.iter (H.record (T.histogram a "h")) [ 1; 2 ];
  List.iter (H.record (T.histogram b "h")) [ 3 ];
  (* a metric only the source has is created in the target *)
  T.add (T.counter b "only_b_total") 11;
  T.merge_into ~into:a b;
  check_int "counters add" 7 (T.counter_value (T.counter a "c_total"));
  check_bool "sum gauges add" true (T.gauge_value (T.gauge a "sum_g") = 3.0);
  check_bool "max gauges take the max" true
    (T.gauge_value (T.gauge a ~merge:T.Max "max_g") = 9.0);
  check_int "histograms merge bucket-wise" 3 (H.count (T.histogram a "h"));
  check_int "missing metrics created" 11
    (T.counter_value (T.counter a "only_b_total"));
  (* and the source is untouched *)
  check_int "source counter untouched" 4
    (T.counter_value (T.counter b "c_total"))

(* ---- exposition: render, parse, golden ---- *)

(* A registry with fixed contents, shared by the round-trip and golden
   tests. Base labels exercise label merging with per-metric labels. *)
let reference_registry () =
  let r = T.create ~labels:[ ("scenario", "t1/cell \"a\"") ] () in
  T.add (T.counter r ~help:"Packets delivered." "eear_delivered_total") 42;
  let g = T.gauge r ~help:"Current backlog." "eear_backlog_packets" in
  T.set_gauge g 17.0;
  let f = T.gauge r "fractional" in
  T.set_gauge f 0.125;
  let nf = T.gauge r "nonfinite" in
  T.set_gauge nf infinity;
  let h = T.histogram r ~help:"Delays." "eear_delay_rounds" in
  List.iter (H.record h) [ 1; 1; 2; 100; 1000 ];
  T.add
    (T.counter r ~labels:[ ("phase", "inject") ] "eear_phase_ns_total")
    100;
  T.add
    (T.counter r ~labels:[ ("phase", "resolve") ] "eear_phase_ns_total")
    200;
  r

let test_render_parse_roundtrip () =
  let r = reference_registry () in
  match T.parse_exposition (T.render r) with
  | Error msg -> Alcotest.fail msg
  | Ok triples ->
    let get name extra =
      List.find_map
        (fun (n, labels, v) ->
          if
            n = name
            && List.for_all
                 (fun (k, want) -> List.assoc_opt k labels = Some want)
                 extra
          then Some v
          else None)
        triples
    in
    check_bool "counter" true (get "eear_delivered_total" [] = Some 42.0);
    check_bool "gauge" true (get "eear_backlog_packets" [] = Some 17.0);
    check_bool "fractional" true (get "fractional" [] = Some 0.125);
    check_bool "+Inf" true (get "nonfinite" [] = Some infinity);
    check_bool "labelled counter" true
      (get "eear_phase_ns_total" [ ("phase", "resolve") ] = Some 200.0);
    check_bool "base label on every line" true
      (List.for_all
         (fun (_, labels, _) ->
           List.assoc_opt "scenario" labels = Some "t1/cell \"a\"")
         triples);
    check_bool "histogram count line" true
      (get "eear_delay_rounds_count" [] = Some 5.0);
    (match get "eear_delay_rounds" [ ("quantile", "0.5") ] with
     | Some v -> check_bool "p50 sane" true (v >= 1.0 && v <= 2.0)
     | None -> Alcotest.fail "no p50 line");
    match get "eear_delay_rounds" [ ("quantile", "0.99") ] with
    | Some v -> check_bool "p99 sane" true (v >= 100.0 && v <= 1000.0)
    | None -> Alcotest.fail "no p99 line"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The exposition format is an interface (scraped by CI and parsed by
   [routing_sim top]); pin it byte-for-byte. Regenerate with
   [dune exec test/gen_telemetry_golden.exe] after a deliberate change. *)
let test_golden_exposition () =
  check_string "golden exposition"
    (read_file "golden/telemetry.prom")
    (T.render (reference_registry ()))

let test_parse_rejects_malformed () =
  List.iter
    (fun body ->
      match T.parse_exposition body with
      | Ok _ -> Alcotest.failf "accepted malformed exposition %S" body
      | Error msg ->
        check_bool "error names a line" true
          (String.length msg > 0 && String.sub msg 0 5 = "line "))
    [ "no value"; "m{unclosed 1"; "m not-a-number"; "m 1 trailing" ]

let test_write_atomic () =
  Helpers.with_temp_dir "eear_tel" (fun dir ->
      let path = Filename.concat dir "x.prom" in
      T.write_atomic ~path "a 1\n";
      T.write_atomic ~path "a 2\n";
      check_string "last write wins" "a 2\n" (read_file path);
      check_bool "no temp litter" true
        (Sys.readdir dir |> Array.to_list |> List.for_all (fun f -> f = "x.prom")))

(* ---- fleet aggregation ---- *)

let test_fleet_aggregate () =
  Helpers.with_temp_dir "eear_fleet" (fun root ->
      (* the fleet creates its own directory *)
      let dir = Filename.concat root "fleet" in
      let fleet = T.Fleet.create ~dir ~every:10 () in
      let finish_scenario ~id ~delivered =
        let p = T.Fleet.probe fleet ~id in
        let c = T.counter p.T.registry "eear_delivered_total" in
        T.add c delivered;
        let g = T.gauge p.T.registry ~merge:T.Max "eear_backlog_peak_packets" in
        T.set_gauge g (float_of_int delivered);
        p.T.on_sample ~round:10 p.T.registry;
        T.Fleet.finish fleet p
      in
      finish_scenario ~id:"row/a" ~delivered:5;
      finish_scenario ~id:"row/b" ~delivered:7;
      T.Fleet.note_cached fleet ~id:"row/c";
      T.Fleet.add_counter fleet T.Names.bisect_probes;
      let agg = T.Fleet.aggregate fleet in
      check_int "delivered sums" 12
        (T.counter_value (T.counter agg "eear_delivered_total"));
      check_bool "max gauge takes the max" true
        (T.gauge_value (T.gauge agg ~merge:T.Max "eear_backlog_peak_packets")
         = 7.0);
      check_int "started" 2
        (T.counter_value (T.counter agg T.Names.scenarios_started));
      check_int "completed" 2
        (T.counter_value (T.counter agg T.Names.scenarios_completed));
      check_int "cached" 1
        (T.counter_value (T.counter agg T.Names.scenarios_cached));
      check_int "ad-hoc counter" 1
        (T.counter_value (T.counter agg T.Names.bisect_probes));
      (* the exposition files exist and parse *)
      let expect_file name =
        let path = Filename.concat dir name in
        check_bool (name ^ " exists") true (Sys.file_exists path);
        match T.parse_exposition (read_file path) with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: %s" name msg
      in
      expect_file "fleet.prom";
      expect_file (Mac_sim.Durable.file_stem "row/a" ^ ".prom");
      expect_file (Mac_sim.Durable.file_stem "row/b" ^ ".prom"))

(* A scenario probed again (a retry, a served channel adopted again)
   starts once; only its finished probe is merged. *)
let test_fleet_counts_each_id_once () =
  let fleet = T.Fleet.create () in
  let started () =
    T.counter_value
      (T.counter (T.Fleet.aggregate fleet) T.Names.scenarios_started)
  in
  let probes = List.init 3 (fun _ -> T.Fleet.probe fleet ~id:"row/a") in
  T.Fleet.finish fleet (List.nth probes 2);
  check_int "three probes of one id start once" 1 (started ());
  check_int "one finish completes once" 1
    (T.counter_value
       (T.counter (T.Fleet.aggregate fleet) T.Names.scenarios_completed));
  ignore (T.Fleet.probe fleet ~id:"row/b");
  check_int "a second id starts again" 2 (started ())

(* Concurrent probes from batch workers keep exact totals. *)
let test_fleet_parallel () =
  let fleet = T.Fleet.create ~every:5 () in
  let ids = List.init 8 (fun i -> Printf.sprintf "par/%d" i) in
  ignore
    (Mac_experiments.Scenario.run_batch ~jobs:4
       (List.map
          (fun id () ->
            let p = T.Fleet.probe fleet ~id in
            T.add (T.counter p.T.registry "eear_delivered_total") 3;
            T.Fleet.finish fleet p)
          ids));
  let agg = T.Fleet.aggregate fleet in
  check_int "all scenarios merged" 24
    (T.counter_value (T.counter agg "eear_delivered_total"));
  check_int "all completed" 8
    (T.counter_value (T.counter agg T.Names.scenarios_completed))

(* ---- the engine's sampling cadence ---- *)

let run_with_probe ~rounds ~drain ~every =
  let samples = ref [] in
  let registry = T.create () in
  let probe =
    T.probe ~every
      ~on_sample:(fun ~round reg ->
        samples := (round, T.sample reg) :: !samples)
      registry
  in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 7 10)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:6 ~seed:91)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      drain_limit = drain; telemetry = Some probe }
  in
  let summary =
    Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop) ~n:6
      ~k:2 ~adversary ~rounds ()
  in
  (summary, registry, List.rev !samples)

let test_engine_cadence () =
  let summary, registry, samples =
    run_with_probe ~rounds:2_000 ~drain:0 ~every:500
  in
  Alcotest.(check (list int))
    "sampled every 500 rounds" [ 500; 1000; 1500; 2000 ]
    (List.map fst samples);
  let s = T.sample registry in
  let get name =
    match T.find_sample s name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  check_bool "samples counted" true
    (get T.Names.samples_total = float_of_int (List.length samples));
  check_bool "round gauge at the end" true
    (get T.Names.round = float_of_int (summary.rounds + summary.drain_rounds));
  check_bool "target" true (get T.Names.rounds_target = 2_000.0);
  check_bool "delivered mirrors the summary" true
    (get T.Names.delivered_total = float_of_int summary.delivered);
  check_bool "injected mirrors the summary" true
    (get T.Names.injected_total = float_of_int summary.injected);
  check_bool "energy mirrors the summary" true
    (get T.Names.energy_total = float_of_int summary.station_rounds);
  (* the shared delay histogram is registered and live *)
  let h = T.histogram registry T.Names.delay in
  check_int "delay histogram shared with metrics" summary.delivered
    (H.count h);
  (* per-phase timing histograms recorded once per sampled round *)
  List.iter
    (fun phase ->
      let ph =
        T.histogram registry ~labels:[ ("phase", phase) ] T.Names.phase_ns
      in
      check_int
        (Printf.sprintf "one %s timing per sample" phase)
        (List.length samples) (H.count ph))
    [ "inject"; "faults"; "resolve"; "deliver"; "observe" ]

let test_engine_final_partial_sample () =
  (* 2000 rounds at cadence 1500: boundary sample at 1500, plus the final
     flush at 2000 even though it is off-cadence. *)
  let _, _, samples = run_with_probe ~rounds:2_000 ~drain:0 ~every:1_500 in
  Alcotest.(check (list int)) "boundary plus final" [ 1500; 2000 ]
    (List.map fst samples)

(* The minor-words gauge counts exactly: every window of a dense run
   allocates, whether or not a minor collection fell inside it. *)
let test_engine_gc_gauge () =
  let _, _, samples = run_with_probe ~rounds:5_000 ~drain:0 ~every:100 in
  let rates =
    List.map
      (fun (round, s) ->
        match T.find_sample s T.Names.gc_minor_words_per_round with
        | Some v -> (round, v)
        | None -> Alcotest.failf "no minor-words gauge at round %d" round)
      samples
  in
  check_int "fifty samples" 50 (List.length rates);
  List.iteri
    (fun i (round, v) ->
      check_bool
        (Printf.sprintf "round %d reads %g words/round" round v)
        true
        (if i = 0 then v >= 0.0 else v > 0.0))
    rates

let test_event_stream_carries_samples () =
  let events = ref [] in
  let sink = Mac_sim.Sink.make (fun ~round ev -> events := (round, ev) :: !events) in
  let registry = T.create () in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:6 ~seed:97)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:1_000) with
      sink = Some sink; telemetry = Some (T.probe ~every:250 registry) }
  in
  ignore
    (Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop) ~n:6
       ~k:2 ~adversary ~rounds:1_000 ());
  let telemetry_rounds =
    List.filter_map
      (fun (round, ev) ->
        match (ev : Mac_channel.Event.t) with
        | Telemetry { sample } ->
          check_bool "sample non-empty" true (sample <> []);
          Some round
        | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check (list int))
    "telemetry events at each cadence boundary" [ 250; 500; 750; 1000 ]
    telemetry_rounds

let () =
  Alcotest.run "telemetry"
    [ ("registry",
       [ Alcotest.test_case "registration idempotent" `Quick
           test_registration_idempotent;
         Alcotest.test_case "kind clash rejected" `Quick
           test_kind_clash_rejected;
         Alcotest.test_case "sample and find" `Quick test_sample_and_find ]);
      ("histogram-merge",
       [ QCheck_alcotest.to_alcotest qcheck_histogram_merge_law;
         Alcotest.test_case "merge leaves inputs alone" `Quick
           test_merge_leaves_inputs_alone ]);
      ("registry-merge",
       [ Alcotest.test_case "policies" `Quick test_merge_into_policies ]);
      ("exposition",
       [ Alcotest.test_case "render/parse round-trip" `Quick
           test_render_parse_roundtrip;
         Alcotest.test_case "golden format" `Quick test_golden_exposition;
         Alcotest.test_case "parser rejects malformed" `Quick
           test_parse_rejects_malformed;
         Alcotest.test_case "atomic writes" `Quick test_write_atomic ]);
      ("fleet",
       [ Alcotest.test_case "aggregate" `Quick test_fleet_aggregate;
         Alcotest.test_case "parallel probes" `Quick test_fleet_parallel;
         Alcotest.test_case "each id starts once" `Quick
           test_fleet_counts_each_id_once ]);
      ("engine",
       [ Alcotest.test_case "cadence" `Quick test_engine_cadence;
         Alcotest.test_case "final partial sample" `Quick
           test_engine_final_partial_sample;
         Alcotest.test_case "minor-words gauge" `Quick test_engine_gc_gauge;
         Alcotest.test_case "event stream carries samples" `Quick
           test_event_stream_carries_samples ]) ]
