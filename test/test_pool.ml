(* The worker pool: order-preserving map semantics, exactly-once
   execution, exception propagation, and — the property the experiment
   suites rely on — bit-identical parallel runs of the full Table-1
   scenario list, down to the recorded event streams. *)

module Pool = Mac_sim.Pool

let check_int = Alcotest.(check int)

(* ---- map semantics ---- *)

let test_map_matches_list_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs) (Pool.map ~jobs xs f))
    [ 1; 2; 4; 7; 64 ]

let test_map_empty_and_defaults () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 [] (fun x -> x));
  check_int "singleton" 1 (List.length (Pool.map ~jobs:8 [ () ] (fun () -> 0)));
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_map_rejects_bad_jobs () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 [ 1 ] (fun x -> x)))

(* ---- exactly-once execution ---- *)

let test_exactly_once () =
  List.iter
    (fun jobs ->
      let m = 200 in
      let counts = Array.init m (fun _ -> Atomic.make 0) in
      let results =
        Pool.map ~jobs
          (List.init m (fun i -> i))
          (fun i ->
            Atomic.incr counts.(i);
            i)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "results in order (jobs=%d)" jobs)
        (List.init m (fun i -> i))
        results;
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "item %d ran once (jobs=%d)" i jobs) 1
            (Atomic.get c))
        counts)
    [ 1; 4; 64 ]

(* ---- exception propagation ---- *)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "Boom propagates (jobs=%d)" jobs)
        (Boom 7)
        (fun () ->
          ignore
            (Pool.map ~jobs
               (List.init 20 (fun i -> i))
               (fun i -> if i = 7 then raise (Boom 7) else i))))
    [ 1; 4 ]

let test_clean_after_failure () =
  (* A failed batch leaves nothing behind: the same pool function works
     immediately afterwards, and no job of the failed batch runs twice. *)
  let ran = Array.init 50 (fun _ -> Atomic.make 0) in
  (try
     ignore
       (Pool.map ~jobs:4
          (List.init 50 (fun i -> i))
          (fun i ->
            Atomic.incr ran.(i);
            if i = 0 then raise (Boom 0);
            i))
   with Boom 0 -> ());
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "item %d at most once" i)
        true
        (Atomic.get c <= 1))
    ran;
  Alcotest.(check (list int))
    "pool usable after failure" [ 0; 2; 4 ]
    (Pool.map ~jobs:4 [ 0; 1; 2 ] (fun x -> 2 * x))

(* ---- parallel Table-1 is bit-identical to sequential ---- *)

(* Observer recording every scenario's full event stream (as serialised
   JSON, round included) into a table keyed by scenario id. Scenario.run
   closes the sink when the run finishes; parallel runs hit the table
   from several domains, hence the mutex. *)
let recording_observer () =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let calls : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let mu = Mutex.create () in
  let observe ~id =
    Mutex.lock mu;
    Hashtbl.replace calls id (1 + Option.value ~default:0 (Hashtbl.find_opt calls id));
    Mutex.unlock mu;
    let buf = ref [] in
    Some
      (Mac_sim.Sink.make
         ~close:(fun () ->
           Mutex.lock mu;
           Hashtbl.replace tbl id (List.rev !buf);
           Mutex.unlock mu)
         (fun ~round ev -> buf := Mac_channel.Event.to_json ~round ev :: !buf))
  in
  (observe, tbl, calls)

let test_table1_parallel_bit_identical () =
  List.iter
    (fun (exp : Mac_experiments.Table1.t) ->
      let obs_seq, events_seq, calls_seq = recording_observer () in
      let obs_par, events_par, calls_par = recording_observer () in
      let run observe jobs =
        Helpers.fresh_outcomes
          (Mac_experiments.Table1.sweep ~observe ~jobs ~scale:`Quick exp ())
      in
      let seq = run obs_seq 1 in
      let par = run obs_par 4 in
      check_int (exp.id ^ ": outcome count") (List.length seq) (List.length par);
      List.iter2
        (fun (a : Mac_experiments.Scenario.outcome) b ->
          Alcotest.(check string)
            (exp.id ^ "/" ^ a.spec.id ^ ": outcome row")
            (Mac_experiments.Scenario.outcome_json ~experiment:exp.id a)
            (Mac_experiments.Scenario.outcome_json ~experiment:exp.id b))
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
        (fun id stream ->
          Alcotest.(check (list string))
            (exp.id ^ "/" ^ id ^ ": event stream")
            stream
            (Option.value ~default:[] (Hashtbl.find_opt events_par id)))
        events_seq)
    Mac_experiments.Table1.all

let () =
  Alcotest.run "pool"
    [ ("map",
       [ Alcotest.test_case "matches List.map" `Quick test_map_matches_list_map;
         Alcotest.test_case "empty and defaults" `Quick test_map_empty_and_defaults;
         Alcotest.test_case "rejects jobs < 1" `Quick test_map_rejects_bad_jobs ]);
      ("exactly-once",
       [ Alcotest.test_case "every job runs once" `Quick test_exactly_once ]);
      ("failure",
       [ Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
         Alcotest.test_case "clean after failure" `Quick test_clean_after_failure ]);
      ("determinism",
       [ Alcotest.test_case "table1 parallel = sequential" `Quick
           test_table1_parallel_bit_identical ]) ]
