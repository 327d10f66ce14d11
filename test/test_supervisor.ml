(* The supervisor: plain-batch semantics under the default policy (first
   exception aborts and is re-raised, order-preserving, exactly-once),
   and the fault tolerance on top — per-job outcomes, retries with
   deterministic backoff, watchdog timeouts, quarantine on arrival, and
   cooperative drain. Every exception a job raises is that attempt's
   failure; no exception ends a worker. *)

module Supervisor = Mac_sim.Supervisor

exception Boom of int

let check_int = Alcotest.(check int)

(* Events arrive from worker domains; collect them under a mutex. *)
let event_recorder () =
  let mu = Mutex.create () in
  let events = ref [] in
  let on_event ev =
    Mutex.lock mu;
    events := ev :: !events;
    Mutex.unlock mu
  in
  (on_event, fun () -> List.rev !events)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "expected Ok, got %s" (Supervisor.error_to_string e)

(* ---- Plain-batch semantics under the default policy ---- *)

let test_map_matches_list_map () =
  let xs = List.init 60 (fun i -> i) in
  let f x = (x * 3) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (List.map f xs)
        (List.map ok
           (Supervisor.map ~jobs xs (fun ~heartbeat:_ ~attempt:_ x -> f x))))
    [ 1; 2; 4 ]

let test_map_empty_and_invalid () =
  Alcotest.(check (list int)) "empty" []
    (List.map ok (Supervisor.map ~jobs:4 [] (fun ~heartbeat:_ ~attempt:_ x -> x)));
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Supervisor.map: jobs must be >= 1") (fun () ->
      ignore (Supervisor.map ~jobs:0 [ 1 ] (fun ~heartbeat:_ ~attempt:_ x -> x)));
  Alcotest.check_raises "retries<0"
    (Invalid_argument "Supervisor.map: retries must be >= 0") (fun () ->
      ignore
        (Supervisor.map
           ~policy:{ Supervisor.default_policy with retries = -1 }
           ~jobs:1 [ 1 ]
           (fun ~heartbeat:_ ~attempt:_ x -> x)))

(* First/middle/last failing index, jobs 1 and >1: the first error is
   re-raised as itself, and no job of the failed batch ran twice. *)
let test_first_error_aborts () =
  let m = 20 in
  List.iter
    (fun jobs ->
      List.iter
        (fun bad ->
          let ran = Array.init m (fun _ -> Atomic.make 0) in
          Alcotest.check_raises
            (Printf.sprintf "Boom at %d propagates (jobs=%d)" bad jobs)
            (Boom bad)
            (fun () ->
              ignore
                (Supervisor.map ~jobs
                   (List.init m (fun i -> i))
                   (fun ~heartbeat:_ ~attempt:_ i ->
                     Atomic.incr ran.(i);
                     if i = bad then raise (Boom bad);
                     i)));
          Array.iteri
            (fun i c ->
              Alcotest.(check bool)
                (Printf.sprintf "item %d at most once (bad=%d jobs=%d)" i bad
                   jobs)
                true
                (Atomic.get c <= 1))
            ran)
        [ 0; m / 2; m - 1 ])
    [ 1; 4 ]

let test_exactly_once () =
  List.iter
    (fun jobs ->
      let m = 100 in
      let counts = Array.init m (fun _ -> Atomic.make 0) in
      let results =
        Supervisor.map ~jobs
          (List.init m (fun i -> i))
          (fun ~heartbeat:_ ~attempt:_ i ->
            Atomic.incr counts.(i);
            i)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "results in order (jobs=%d)" jobs)
        (List.init m (fun i -> i))
        (List.map ok results);
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "item %d ran once (jobs=%d)" i jobs) 1
            (Atomic.get c))
        counts)
    [ 1; 4 ]

(* ---- keep_going: per-job outcomes ---- *)

(* Whatever a job raises, runtime errors and control-flow exceptions
   included, is that job's failed attempt: the worker goes on to the
   next job, and every other job still returns. *)
let test_keep_going_outcomes () =
  let m = 12 in
  let raised =
    [ (0, Boom 0); (2, Stack_overflow); (4, Out_of_memory);
      (m / 2, Boom (m / 2)); (8, Exit); (10, Not_found); (m - 1, Boom (m - 1)) ]
  in
  List.iter
    (fun jobs ->
      let results =
        Supervisor.map
          ~policy:{ Supervisor.default_policy with keep_going = true }
          ~jobs
          (List.init m (fun i -> i))
          (fun ~heartbeat:_ ~attempt:_ i ->
            Option.iter raise (List.assoc_opt i raised);
            i * 10)
      in
      check_int "outcome count" m (List.length results);
      List.iteri
        (fun i r ->
          match (r, List.assoc_opt i raised) with
          | Ok v, None ->
            check_int (Printf.sprintf "job %d value" i) (i * 10) v
          | Error (Supervisor.Failed { attempts = 1; error }), Some e ->
            Alcotest.(check string)
              (Printf.sprintf "job %d failed with its own exception (jobs=%d)"
                 i jobs)
              (Printexc.to_string e) (Printexc.to_string error)
          | _ ->
            Alcotest.failf "job %d (jobs=%d): unexpected outcome" i jobs)
        results)
    [ 1; 3 ]

(* ---- retries and backoff ---- *)

let retry_policy =
  { Supervisor.default_policy with
    retries = 2; backoff = 0.001; backoff_cap = 0.004; keep_going = true }

let test_retry_until_success () =
  let on_event, events = event_recorder () in
  let results =
    Supervisor.map ~policy:retry_policy ~on_event ~jobs:1 [ () ]
      (fun ~heartbeat:_ ~attempt () ->
        if attempt < 3 then raise (Boom attempt);
        attempt)
  in
  (match results with
   | [ Ok 3 ] -> ()
   | [ r ] ->
     Alcotest.failf "expected Ok 3, got %s"
       (match r with
        | Ok v -> Printf.sprintf "Ok %d" v
        | Error e -> Supervisor.error_to_string e)
   | _ -> Alcotest.fail "expected one outcome");
  let failed_attempts =
    List.filter
      (function Supervisor.Attempt_failed _ -> true | _ -> false)
      (events ())
  in
  check_int "two failed attempts before success" 2
    (List.length failed_attempts)

let test_retries_exhausted () =
  let runs = Atomic.make 0 in
  let results =
    Supervisor.map ~policy:retry_policy ~jobs:1 [ () ]
      (fun ~heartbeat:_ ~attempt:_ () ->
        Atomic.incr runs;
        raise (Boom 0))
  in
  (match results with
   | [ Error (Supervisor.Failed { attempts = 3; error = Boom 0 }) ] -> ()
   | _ -> Alcotest.fail "expected Failed after 3 attempts");
  check_int "ran once per attempt" 3 (Atomic.get runs)

let test_backoff_delays () =
  let p = { Supervisor.default_policy with backoff = 0.1; backoff_cap = 0.3 } in
  let d attempt = Supervisor.backoff_delay p ~attempt in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.1 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.2 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3 capped" 0.3 (d 3);
  Alcotest.(check (float 1e-9)) "attempt 7 capped" 0.3 (d 7)

(* ---- watchdog timeouts ---- *)

(* The stalling job must heartbeat *sparsely*: a heartbeat is progress
   and resets the watchdog, so polling the cancel flag faster than the
   deadline would keep the attempt alive forever. *)
let stall ~heartbeat ~timeout =
  for _ = 1 to 60 do
    Unix.sleepf (3.0 *. timeout);
    heartbeat ()
  done;
  Alcotest.fail "stalled job was never cancelled"

let test_watchdog_cancels_stall () =
  let timeout = 0.05 in
  let policy =
    { Supervisor.default_policy with job_timeout = timeout; keep_going = true }
  in
  let results =
    Supervisor.map ~policy ~jobs:2
      [ `Stall; `Fine; `Fine ]
      (fun ~heartbeat ~attempt:_ x ->
        match x with
        | `Stall -> stall ~heartbeat ~timeout
        | `Fine ->
          heartbeat ();
          0)
  in
  match results with
  | [ Error (Supervisor.Timed_out { attempts = 1; timeout = t }); Ok 0; Ok 0 ]
    ->
    Alcotest.(check (float 1e-9)) "deadline reported" timeout t
  | _ -> Alcotest.fail "expected [Timed_out; Ok; Ok]"

(* ---- quarantine ---- *)

let test_quarantined_on_arrival () =
  let ran = Atomic.make false in
  let results =
    Supervisor.map
      ~policy:{ Supervisor.default_policy with keep_going = true }
      ~label:(fun i -> Printf.sprintf "job-%d" i)
      ~quarantined:(fun l -> if l = "job-1" then Some 3 else None)
      ~jobs:1 [ 0; 1; 2 ]
      (fun ~heartbeat:_ ~attempt:_ i ->
        if i = 1 then Atomic.set ran true;
        i)
  in
  (match results with
   | [ Ok 0; Error (Supervisor.Quarantined { failures = 3 }); Ok 2 ] -> ()
   | _ -> Alcotest.fail "expected the middle job quarantined on arrival");
  Alcotest.(check bool) "quarantined job never ran" false (Atomic.get ran)

(* ---- cooperative drain ---- *)

let test_drain_skips_unstarted () =
  Supervisor.reset_drain ();
  Fun.protect
    ~finally:(fun () -> Supervisor.reset_drain ())
    (fun () ->
      let on_event, events = event_recorder () in
      let results =
        Supervisor.map
          ~policy:{ Supervisor.default_policy with keep_going = true }
          ~on_event ~jobs:1 [ 0; 1; 2; 3 ]
          (fun ~heartbeat:_ ~attempt:_ i ->
            (* in-flight work finishes; the drain lands before the next
               claim *)
            if i = 0 then Supervisor.request_drain ();
            i)
      in
      (match results with
       | [ Ok 0; Error Supervisor.Skipped; Error Supervisor.Skipped;
           Error Supervisor.Skipped ] ->
         ()
       | _ -> Alcotest.fail "expected [Ok 0; Skipped x3]");
      match
        List.filter
          (function Supervisor.Jobs_skipped _ -> true | _ -> false)
          (events ())
      with
      | [ Supervisor.Jobs_skipped { count = 3 } ] -> ()
      | _ -> Alcotest.fail "expected one Jobs_skipped{count=3} event")

let () =
  Alcotest.run "supervisor"
    [ ("pool-parity",
       [ Alcotest.test_case "matches List.map" `Quick test_map_matches_list_map;
         Alcotest.test_case "empty and invalid args" `Quick
           test_map_empty_and_invalid;
         Alcotest.test_case "first/middle/last error aborts" `Quick
           test_first_error_aborts;
         Alcotest.test_case "every job runs once" `Quick test_exactly_once ]);
      ("keep-going",
       [ Alcotest.test_case "per-job outcomes" `Quick test_keep_going_outcomes ]);
      ("retries",
       [ Alcotest.test_case "retry until success" `Quick
           test_retry_until_success;
         Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
         Alcotest.test_case "deterministic backoff" `Quick test_backoff_delays ]);
      ("watchdog",
       [ Alcotest.test_case "stalled attempt cancelled" `Quick
           test_watchdog_cancels_stall ]);
      ("quarantine",
       [ Alcotest.test_case "on arrival, without running" `Quick
           test_quarantined_on_arrival ]);
      ("drain",
       [ Alcotest.test_case "unstarted jobs skipped" `Quick
           test_drain_skips_unstarted ]) ]
