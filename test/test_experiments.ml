(* Tests for the experiments layer: the Table-1 bound formulas, the scenario
   runner and its checkers, and quick-scale executions of the catalog. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

open Mac_experiments
module Q = Mac_channel.Qrat

(* ---- Bounds formulas ---- *)

let test_orchestra_bound () =
  check_float "2n^3+b" 2004.0 (Bounds.orchestra_queue_bound ~n:10 ~beta:4.0);
  check_int "big threshold" 99 (Bounds.orchestra_big_threshold ~n:10)

let test_count_hop_bounds () =
  check_float "paper" 2040.0 (Bounds.count_hop_latency ~n:10 ~rho:0.9 ~beta:2.0);
  check_float "impl" 3440.0 (Bounds.count_hop_latency_impl ~n:10 ~rho:0.9 ~beta:2.0)

let test_k_cycle_rate () =
  check_float "(k-1)/(n-1)" (3.0 /. 11.0) (Bounds.k_cycle_rate ~n:12 ~k:4);
  (* the n <= 2k adjustment feeds through *)
  check_float "adjusted" (3.0 /. 6.0) (Bounds.k_cycle_rate ~n:7 ~k:6);
  check_float "latency" 408.0 (Bounds.k_cycle_latency ~n:12 ~beta:2.0)

let test_k_cycle_impl_rate () =
  (* one group in ceil(n/(k-1)) owns a flood's rounds *)
  check_float "n=12 k=4" 0.25 (Bounds.k_cycle_rate_impl ~n:12 ~k:4);
  check_float "n=8 k=3" 0.25 (Bounds.k_cycle_rate_impl ~n:8 ~k:3);
  check_float "n=13 k=4 (5 groups)" 0.2 (Bounds.k_cycle_rate_impl ~n:13 ~k:4);
  check_bool "strictly below the paper's threshold" true
    (Bounds.k_cycle_rate_impl ~n:12 ~k:4 < Bounds.k_cycle_rate ~n:12 ~k:4);
  check_bool "still below Theorem 6's k/n" true
    (Bounds.k_cycle_rate_impl ~n:12 ~k:4 < Bounds.oblivious_rate_upper ~n:12 ~k:4)

let test_oblivious_upper () =
  check_float "k/n" (1.0 /. 3.0) (Bounds.oblivious_rate_upper ~n:12 ~k:4)

let test_k_clique_bounds () =
  check_float "latency rate" (16.0 /. 480.0) (Bounds.k_clique_latency_rate ~n:12 ~k:4);
  check_float "stable rate" (16.0 /. 240.0) (Bounds.k_clique_stable_rate ~n:12 ~k:4);
  check_float "latency" 360.0 (Bounds.k_clique_latency ~n:12 ~k:4 ~beta:2.0)

let test_k_subsets_bounds () =
  check_float "rate" (6.0 /. 30.0) (Bounds.k_subsets_rate ~n:6 ~k:3);
  check_float "queues" (2.0 *. 20.0 *. 40.0)
    (Bounds.k_subsets_queue_bound ~n:6 ~k:3 ~beta:4.0)

let test_adjust_window_impl_bound_grows_with_rho () =
  let b1 = Bounds.adjust_window_latency_impl ~n:4 ~rho:0.3 ~beta:2.0 in
  let b2 = Bounds.adjust_window_latency_impl ~n:4 ~rho:0.9 ~beta:2.0 in
  check_bool "monotone in rho" true (b2 >= b1);
  check_bool "at least two initial windows" true
    (b1 >= 2.0 *. float_of_int (Mac_routing.Adjust_window.initial_window ~n:4))

(* ---- Scenario runner ---- *)

let simple_spec ?(id = "test") ?(rounds = 20_000) () =
  Scenario.spec_q ~id ~algorithm:(module Mac_routing.Pair_tdma) ~n:4 ~k:2
    ~rate:(Q.make 1 10) ~burst:(Q.of_int 2)
    ~pattern:(fun () -> Mac_adversary.Pattern.round_robin ~n:4)
    ~rounds ()

let test_scenario_checks_pass () =
  let o =
    Scenario.run
      ~checks:
        [ Scenario.cap_at_most 2; Scenario.clean; Scenario.stable;
          Scenario.delivered_all; Scenario.latency_under 1.0e9 ]
      (simple_spec ())
  in
  check_bool "passed" true o.passed;
  check_int "all five checks ran" 5 (List.length o.checks)

let test_scenario_check_failure_detected () =
  let o = Scenario.run ~checks:[ Scenario.latency_under 1.0 ] (simple_spec ()) in
  check_bool "failed" false o.passed

let test_scenario_unstable_check () =
  (* pair-tdma drowns under a dedicated pair flood above its threshold *)
  let spec =
    Scenario.spec_q ~id:"drown" ~algorithm:(module Mac_routing.Pair_tdma) ~n:4
      ~k:2 ~rate:(Q.make 3 10) ~burst:(Q.of_int 2)
      ~pattern:(fun () -> Mac_adversary.Pattern.pair_flood ~src:1 ~dst:2)
      ~rounds:30_000 ~drain:0 ()
  in
  let o = Scenario.run ~checks:[ Scenario.unstable ] spec in
  check_bool "unstable detected" true o.passed

let test_schedule_of () =
  check_bool "oblivious exposes schedule" true
    (Scenario.schedule_of (module Mac_routing.Pair_tdma) ~n:4 ~k:2 <> None);
  check_bool "adaptive has none" true
    (Scenario.schedule_of (module Mac_routing.Orchestra) ~n:4 ~k:3 = None)

(* ---- registry ---- *)

module J = Mac_channel.Jsonv

let print_spec (s : Registry.spec) =
  Printf.sprintf
    "%s n=%d k=%d rate=%s burst=%s pattern=%S rounds=%d drain=%d seed=%d"
    s.algorithm s.n s.k (Q.to_string s.rate) (Q.to_string s.burst) s.pattern
    s.rounds s.drain s.seed

(* Pattern specs drawn from the grammar with station and number fields
   that may be out of range or malformed, and arbitrary strings. *)
let pattern_gen =
  let open QCheck.Gen in
  let station =
    map string_of_int (frequency [ (4, int_range 0 2); (1, int_range (-1) 9) ])
  in
  let number =
    oneof
      [ map string_of_float (float_range (-0.5) 1.5);
        oneofl [ "0"; "1"; "0.5"; "nan"; "inf"; "x"; "" ] ]
  in
  let join parts = String.concat ":" parts in
  frequency
    [ (3, oneofl [ "uniform"; "round-robin"; "to-busiest" ]);
      (1, oneofl [ "min-duty"; "cap2"; "external"; "" ]);
      (2, map (fun v -> join [ "flood"; v ]) station);
      (2, map2 (fun a b -> join [ "pair"; a; b ]) station station);
      (2, map2 (fun h b -> join [ "hotspot"; h; b ]) station number);
      ( 2,
        map3 (fun a b c -> join [ "alternating"; a; b; c ]) station station
          station );
      (1, string_size (int_bound 12)) ]

let spec_gen =
  let open QCheck.Gen in
  let* algorithm = oneofl ("" :: "nope" :: Registry.names) in
  let* n = frequency [ (4, int_range 2 9); (1, int_range (-1) 9) ] in
  let* k = frequency [ (4, int_range 1 (max 1 n)); (1, int_range (-1) 9) ] in
  let* rate =
    frequency
      [ (4, oneofl [ Q.make 1 10; Q.make 1 2; Q.make 9 10; Q.one ]);
        (1, oneofl [ Q.zero; Q.make 3 2 ]) ]
  in
  let* burst =
    frequency
      [ (4, oneofl [ Q.one; Q.of_int 2; Q.make 5 2 ]); (1, pure (Q.make 1 2)) ]
  in
  let* pattern = pattern_gen in
  let* seed = int_bound 1000 in
  return
    { Registry.algorithm; n; k; rate; burst; pattern; rounds = 300;
      drain = 100; seed }

(* The registry never raises, [check] and [algorithm] agree, and every
   spec it accepts runs: 300 rounds and 100 of drain return, with every
   injected packet delivered or still queued. *)
let qcheck_registry_accepts_only_runnable_specs =
  QCheck.Test.make ~name:"registry_accepts_only_runnable_specs" ~count:1000
    (QCheck.make ~print:print_spec spec_gen)
    (fun spec ->
      let algorithm = Registry.algorithm spec.algorithm ~n:spec.n ~k:spec.k in
      let pattern = Registry.pattern spec.pattern ~n:spec.n ~seed:spec.seed in
      match (Registry.check spec, algorithm, pattern) with
      | Ok (), Error msg, _ ->
        QCheck.Test.fail_reportf "check accepted what algorithm refused: %s" msg
      | Ok (), Ok algorithm, Ok pattern ->
        let s =
          Scenario.simulate
            (Scenario.spec_q ~id:spec.algorithm ~algorithm ~n:spec.n ~k:spec.k
               ~rate:spec.rate ~burst:spec.burst ~pattern ~rounds:spec.rounds
               ~drain:spec.drain ())
        in
        s.injected = s.delivered + s.final_total_queue
      | _ -> true)

let any_spec_gen =
  let open QCheck.Gen in
  let* algorithm = string_size (int_bound 8) in
  let* n = int and* k = int and* rounds = int and* drain = int in
  let* pattern = string_size (int_bound 8) and* seed = int in
  let* num = int and* den = int_range 1 max_int in
  let* b = int and* bd = int_range 1 max_int in
  return
    { Registry.algorithm; n; k; rate = Q.make num den; burst = Q.make b bd;
      pattern; rounds; drain; seed }

(* A spec survives its JSON text: what a [.meta] line stores is what
   decodes. *)
let qcheck_spec_codec_roundtrip =
  QCheck.Test.make ~name:"decode_inverts_encode" ~count:500
    (QCheck.make ~print:print_spec any_spec_gen)
    (fun spec ->
      Result.bind
        (J.parse (J.to_string (J.Obj (Registry.encode spec))))
        (Registry.decode ~default:Registry.default)
      = Ok spec)

let json_gen =
  let open QCheck.Gen in
  let key =
    oneof
      [ oneofl
          [ "algorithm"; "n"; "k"; "rate"; "burst"; "rounds"; "drain";
            "pattern"; "seed" ];
        string_size (int_bound 6) ]
  in
  let leaf =
    oneof
      [ pure J.Null; map (fun b -> J.Bool b) bool; map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) float; map (fun s -> J.Str s) string;
        map (fun s -> J.Str s) (oneofl [ "1/2"; "0.1"; "1/0"; "9e99"; "-3" ]) ]
  in
  let value =
    oneof [ leaf; map (fun vs -> J.List vs) (list_size (int_bound 3) leaf) ]
  in
  oneof
    [ map (fun kvs -> J.Obj kvs) (list_size (int_bound 10) (pair key value));
      value ]

(* A .meta line as serve writes it. *)
let meta_line =
  {|{"id":"c1","algorithm":"count-hop","n":6,"k":2,"rate":"1/2",|}
  ^ {|"burst":"2","rounds":40000,"drain":2000,"pattern":"external",|}
  ^ {|"seed":42,"faults":null,"checkpoint_every":512,"status":"open"}|}

let decode_total v =
  match Registry.decode ~default:Registry.default v with
  | Ok _ | Error _ -> true

let qcheck_decode_total_on_objects =
  QCheck.Test.make ~name:"decode_total_on_arbitrary_json" ~count:1000
    (QCheck.make ~print:J.to_string json_gen) decode_total

(* Replace, delete or insert one byte of a valid .meta line. *)
let qcheck_decode_total_on_meta_edits =
  QCheck.Test.make ~name:"decode_total_on_single_byte_meta_edits" ~count:2000
    QCheck.(triple (int_bound 2) (int_bound 10_000) char)
    (fun (edit, at, c) ->
      let len = String.length meta_line in
      let at = at mod (len + 1) in
      let before = String.sub meta_line 0 at in
      let after i = String.sub meta_line i (len - i) in
      let line =
        match edit with
        | 0 when at < len -> before ^ String.make 1 c ^ after (at + 1)
        | 1 when at < len -> before ^ after (at + 1)
        | _ -> before ^ String.make 1 c ^ after at
      in
      match J.parse line with Ok v -> decode_total v | Error _ -> true)

(* ---- catalog ---- *)

(* ---- quarantine markers ---- *)

(* Regression: [quarantine_lookup] read its three lines as a tuple of
   [input_line]s, which OCaml evaluates in unspecified (in practice
   right-to-left) order — the file parsed backwards, the magic never
   matched, and every marker written by [note_quarantined] was dead
   weight. *)
let test_quarantine_marker_roundtrip () =
  Helpers.with_temp_dir "eear_quar" (fun dir ->
      Scenario.note_quarantined ~resume_dir:dir ~id:"row/cell-1" ~failures:3
        ~error:"injected boom";
      Alcotest.(check (option int))
        "marker found with its failure count" (Some 3)
        (Scenario.quarantine_lookup ~resume_dir:dir "row/cell-1");
      Alcotest.(check (option int))
        "other ids unaffected" None
        (Scenario.quarantine_lookup ~resume_dir:dir "row/cell-2");
      (* A truncated or foreign file must read as "not quarantined". *)
      let oc = open_out (Scenario.quarantine_path ~resume_dir:dir "row/cell-3") in
      output_string oc "not a marker\n";
      close_out oc;
      Alcotest.(check (option int))
        "garbage marker ignored" None
        (Scenario.quarantine_lookup ~resume_dir:dir "row/cell-3"))

(* A small Table-1 row over the given scenario ids whose [cells] counts
   how often the catalog is built. *)
let counting_row ids =
  let builds = Atomic.make 0 in
  let row =
    Table1.row ~id:"T1.test" ~claim:"counts its catalog builds" (fun ~scale:_ ->
        Atomic.incr builds;
        List.map
          (fun id ->
            { Table1.spec = simple_spec ~id ~rounds:2_000 (); checks = [] })
          ids)
  in
  (row, builds)

(* The marker must actually short-circuit a later resumable sweep, under
   the default policy as much as under --keep-going: the quarantined cell
   is reported [Quarantined] and never runs. *)
let test_resumable_sweep_honors_marker () =
  Helpers.with_temp_dir "eear_quar_sweep" (fun dir ->
      Scenario.note_quarantined ~resume_dir:dir ~id:"bad" ~failures:2
        ~error:"earlier failure";
      let row, _ = counting_row [ "good"; "bad" ] in
      let ran_bad = ref false in
      let inject cid = if cid = "bad" then ran_bad := true in
      (match
         Table1.sweep
           ~policy:{ Mac_sim.Supervisor.default_policy with keep_going = true }
           ~inject ~resume_dir:dir ~scale:`Quick row ()
       with
       | [ ("good", Ok (Scenario.Fresh _));
           ("bad", Error (Mac_sim.Supervisor.Quarantined { failures = 2 })) ] ->
         ()
       | _ -> Alcotest.fail "expected good=Ok and bad=Quarantined");
      (* The default policy aborts on the quarantined cell instead of running
         it; the good cell replays from its completion marker. *)
      (match Table1.sweep ~inject ~resume_dir:dir ~scale:`Quick row () with
       | _ -> Alcotest.fail "default policy must abort on a quarantined cell"
       | exception
           Mac_sim.Supervisor.Job_gave_up
             { label = "bad"; attempts = 2; reason = "quarantined" } ->
         ());
      check_bool "quarantined cell never ran" false !ran_bad)

(* A marker that cannot be read is absent: a directory at the
   quarantine path neither quarantines the cell nor stops the sweep. *)
let test_unreadable_marker_is_absent () =
  Helpers.with_temp_dir "eear_quar_dir" (fun dir ->
      Sys.mkdir (Scenario.quarantine_path ~resume_dir:dir "cell") 0o755;
      Alcotest.(check (option int))
        "directory reads as no marker" None
        (Scenario.quarantine_lookup ~resume_dir:dir "cell");
      let row, _ = counting_row [ "cell" ] in
      match Table1.sweep ~resume_dir:dir ~scale:`Quick row () with
      | [ ("cell", Ok (Scenario.Fresh _)) ] -> ()
      | _ -> Alcotest.fail "expected the cell to run")

(* A FIFO at the marker path is no marker either, and the lookup must not
   open it: opening a FIFO blocks until a writer comes, and the
   Supervisor looks markers up under its scheduler lock. A helper domain
   opens the FIFO's other end after 2 s unless the lookup has returned,
   so a lookup that blocks fails the timing check instead of hanging. *)
let test_fifo_marker_is_absent () =
  Helpers.with_temp_dir "eear_quar_fifo" (fun dir ->
      let path = Scenario.quarantine_path ~resume_dir:dir "cell" in
      Unix.mkfifo path 0o600;
      let returned = Atomic.make false in
      let unblock =
        Domain.spawn (fun () ->
            let deadline = Unix.gettimeofday () +. 2.0 in
            while
              (not (Atomic.get returned)) && Unix.gettimeofday () < deadline
            do
              Unix.sleepf 0.01
            done;
            if not (Atomic.get returned) then
              Unix.close (Unix.openfile path [ Unix.O_RDWR ] 0))
      in
      let t0 = Unix.gettimeofday () in
      let found = Scenario.quarantine_lookup ~resume_dir:dir "cell" in
      let elapsed = Unix.gettimeofday () -. t0 in
      Atomic.set returned true;
      Domain.join unblock;
      Alcotest.(check (option int)) "a FIFO reads as no marker" None found;
      check_bool
        (Printf.sprintf "lookup returns within 1 s (took %.2f s)" elapsed)
        true (elapsed < 1.0))

(* A sweep builds the row's catalog once, and a retried attempt reruns
   its cell's spec without rebuilding it. *)
let test_sweep_builds_catalog_once () =
  let ids = [ "count/a"; "count/b"; "count/c" ] in
  let json results =
    List.map
      (fun o -> Scenario.outcome_json ~experiment:"T1.test" o)
      (Helpers.fresh_outcomes results)
  in
  let reference = ref [] in
  List.iter
    (fun jobs ->
      let row, builds = counting_row ids in
      let results = Table1.sweep ~jobs ~scale:`Quick row () in
      check_int
        (Printf.sprintf "one build at jobs=%d" jobs)
        1 (Atomic.get builds);
      if !reference = [] then reference := json results
      else
        Alcotest.(check (list string)) "jobs=2 rows match jobs=1" !reference
          (json results))
    [ 1; 2 ];
  let row, builds = counting_row ids in
  let failed_once = ref false in
  let inject cid =
    if cid = "count/b" && not !failed_once then begin
      failed_once := true;
      failwith "injected"
    end
  in
  let results =
    Table1.sweep ~jobs:2
      ~policy:{ Mac_sim.Supervisor.default_policy with retries = 1 }
      ~inject ~scale:`Quick row ()
  in
  check_int "the retry does not rebuild" 1 (Atomic.get builds);
  Alcotest.(check (list string)) "the retried row replays bit-identically"
    !reference (json results)

(* A drain request (SIGTERM) does not make a default-policy sweep raise:
   the unstarted cells resolve as [Skipped], so the CLI can still print
   the finished rows and exit 4. *)
let test_drained_sweep_skips () =
  let row, _ = counting_row [ "drain/a"; "drain/b" ] in
  let ran = ref 0 in
  Mac_sim.Supervisor.request_drain ();
  let results =
    Fun.protect ~finally:Mac_sim.Supervisor.reset_drain (fun () ->
        Table1.sweep ~inject:(fun _ -> incr ran) ~scale:`Quick row ())
  in
  check_bool "every unstarted cell skipped" true
    (List.for_all
       (function _, Error Mac_sim.Supervisor.Skipped -> true | _ -> false)
       results);
  check_int "one outcome per cell" 2 (List.length results);
  check_int "nothing ran" 0 !ran

let test_table1_catalog_complete () =
  check_int "nine rows" 9 (List.length Table1.all);
  List.iter
    (fun (t : Table1.t) ->
      check_bool "id prefixed" true (String.length t.id > 3 && String.sub t.id 0 3 = "T1."))
    Table1.all;
  check_bool "find works" true (Table1.find "T1.orchestra" == List.hd Table1.all)

let test_table1_quick_rows_pass () =
  (* the full sweep is the bench's job; spot-check two structurally
     different rows at quick scale *)
  List.iter
    (fun id ->
      let t = Table1.find id in
      List.iter
        (fun (o : Scenario.outcome) ->
          check_bool (Printf.sprintf "%s/%s passes" id o.spec.id) true o.passed)
        (Helpers.fresh_outcomes (Table1.sweep ~scale:`Quick t ())))
    [ "T1.k-clique"; "T1.obl-impossible" ]

let test_figures_quick_produce_rows () =
  List.iter
    (fun (f : Figures.t) ->
      let s = f.run ~scale:`Quick () in
      check_bool (f.id ^ " yields rows") true
        (String.length (Mac_sim.Report.to_string s.report) > 0);
      check_bool (f.id ^ " yields outcomes") true (s.outcomes <> []);
      check_bool (f.id ^ " has no failures") true (s.failures = []))
    [ Figures.energy ]

(* ---- batches ---- *)

exception Boom of int

(* [Scenario.run_batch] is generic in its result: results come back in
   thunk order at any [jobs], and the first raising thunk's exception is
   re-raised as itself, not wrapped. *)
let test_run_batch_order_and_errors () =
  let thunks = List.init 40 (fun i () -> Printf.sprintf "r%d" (i * i)) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "thunk order (jobs=%d)" jobs)
        (List.map (fun t -> t ()) thunks)
        (Scenario.run_batch ~jobs thunks);
      Alcotest.check_raises
        (Printf.sprintf "first exception re-raised (jobs=%d)" jobs)
        (Boom 7)
        (fun () ->
          ignore
            (Scenario.run_batch ~jobs
               (List.init 20 (fun i () -> if i = 7 then raise (Boom i) else i)))))
    [ 1; 4 ]

(* Observer fingerprinting every scenario's full event stream (as
   serialised JSON, round included) into a table keyed by scenario id: its
   line count and a digest chained over every line, d' = MD5(d ^ line), so
   any differing byte of any line changes it without the streams being
   held in memory. Scenario.run closes the sink when the run finishes;
   parallel runs hit the table from several domains, hence the mutex. *)
let empty_stream = (0, Digest.string "")

let recording_observer () =
  let tbl : (string, int * Digest.t) Hashtbl.t = Hashtbl.create 64 in
  let calls : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let observe ~id =
    Mutex.lock mu;
    Hashtbl.replace calls id (1 + Option.value ~default:0 (Hashtbl.find_opt calls id));
    Mutex.unlock mu;
    let stream = ref empty_stream in
    Some
      (Mac_sim.Sink.make
         ~close:(fun () ->
           Mutex.lock mu;
           Hashtbl.replace tbl id !stream;
           Mutex.unlock mu)
         (fun ~round ev ->
           let lines, chain = !stream in
           stream :=
             ( lines + 1,
               Digest.string (chain ^ Mac_channel.Event.to_json ~round ev) )))
  in
  (observe, tbl, calls)

(* Parallel Table 1 is bit-identical to sequential, down to the recorded
   event streams. *)
let test_table1_parallel_bit_identical () =
  List.iter
    (fun (exp : Table1.t) ->
      let obs_seq, events_seq, calls_seq = recording_observer () in
      let obs_par, events_par, calls_par = recording_observer () in
      let run observe jobs =
        Helpers.fresh_outcomes
          (Table1.sweep ~observe ~jobs ~scale:`Quick exp ())
      in
      let seq = run obs_seq 1 in
      let par = run obs_par 4 in
      check_int (exp.id ^ ": outcome count") (List.length seq) (List.length par);
      List.iter2
        (fun (a : Scenario.outcome) b ->
          Alcotest.(check string)
            (exp.id ^ "/" ^ a.spec.id ^ ": outcome row")
            (Scenario.outcome_json ~experiment:exp.id a)
            (Scenario.outcome_json ~experiment:exp.id b))
        seq par;
      Hashtbl.iter
        (fun id count -> check_int (id ^ ": observed once sequentially") 1 count)
        calls_seq;
      Hashtbl.iter
        (fun id count -> check_int (id ^ ": observed once in parallel") 1 count)
        calls_par;
      check_int (exp.id ^ ": stream count")
        (Hashtbl.length events_seq) (Hashtbl.length events_par);
      Hashtbl.iter
        (fun id (lines, chain) ->
          let lines', chain' =
            Option.value ~default:empty_stream (Hashtbl.find_opt events_par id)
          in
          check_int (exp.id ^ "/" ^ id ^ ": event lines") lines lines';
          Alcotest.(check string)
            (exp.id ^ "/" ^ id ^ ": event stream digest")
            (Digest.to_hex chain) (Digest.to_hex chain'))
        events_seq)
    Table1.all

let () =
  Alcotest.run "experiments"
    [ ("bounds",
       [ Alcotest.test_case "orchestra" `Quick test_orchestra_bound;
         Alcotest.test_case "count-hop" `Quick test_count_hop_bounds;
         Alcotest.test_case "k-cycle" `Quick test_k_cycle_rate;
         Alcotest.test_case "k-cycle impl frontier" `Quick test_k_cycle_impl_rate;
         Alcotest.test_case "oblivious upper" `Quick test_oblivious_upper;
         Alcotest.test_case "k-clique" `Quick test_k_clique_bounds;
         Alcotest.test_case "k-subsets" `Quick test_k_subsets_bounds;
         Alcotest.test_case "adjust-window impl" `Quick
           test_adjust_window_impl_bound_grows_with_rho ]);
      ("scenario",
       [ Alcotest.test_case "checks pass" `Quick test_scenario_checks_pass;
         Alcotest.test_case "failure detected" `Quick test_scenario_check_failure_detected;
         Alcotest.test_case "unstable check" `Slow test_scenario_unstable_check;
         Alcotest.test_case "schedule_of" `Quick test_schedule_of ]);
      ("registry",
       [ QCheck_alcotest.to_alcotest
           qcheck_registry_accepts_only_runnable_specs;
         QCheck_alcotest.to_alcotest qcheck_spec_codec_roundtrip;
         QCheck_alcotest.to_alcotest qcheck_decode_total_on_objects;
         QCheck_alcotest.to_alcotest qcheck_decode_total_on_meta_edits ]);
      ("quarantine",
       [ Alcotest.test_case "marker round-trip" `Quick
           test_quarantine_marker_roundtrip;
         Alcotest.test_case "sweep honors marker" `Quick
           test_resumable_sweep_honors_marker;
         Alcotest.test_case "unreadable marker is absent" `Quick
           test_unreadable_marker_is_absent;
         Alcotest.test_case "FIFO marker is absent, never opened" `Quick
           test_fifo_marker_is_absent ]);
      ("sweep",
       [ Alcotest.test_case "catalog built once" `Quick
           test_sweep_builds_catalog_once;
         Alcotest.test_case "drain skips, does not raise" `Quick
           test_drained_sweep_skips ]);
      ("catalog",
       [ Alcotest.test_case "table1 complete" `Quick test_table1_catalog_complete;
         Alcotest.test_case "table1 quick rows" `Slow test_table1_quick_rows_pass;
         Alcotest.test_case "figures quick" `Slow test_figures_quick_produce_rows ]);
      ("batch",
       [ Alcotest.test_case "run_batch order and errors" `Quick
           test_run_batch_order_and_errors ]);
      ("determinism",
       [ Alcotest.test_case "table1 parallel = sequential" `Quick
           test_table1_parallel_bit_identical ]) ]
