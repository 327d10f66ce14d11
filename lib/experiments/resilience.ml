open Mac_adversary
open Mac_channel
module Fault_plan = Mac_faults.Fault_plan

(* The algorithms under test, each a spec at its Table-1 operating point
   without rounds or faults (a cell adds them), kept safely inside the
   stability region so degradation measured under faults is attributable
   to the faults, not to the adversary. *)
let subjects ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:10 in
  let nc = 12 in
  let subject id algorithm ~n ~k ~rate ~burst pattern =
    Scenario.spec_q ~id ~algorithm ~n ~k ~rate ~burst ~pattern ~rounds:0 ()
  in
  [ subject "orchestra" (module Mac_routing.Orchestra) ~n ~k:3
      ~rate:(Qrat.make 9 10) ~burst:(Qrat.of_int 8)
      (fun () -> Pattern.uniform ~n ~seed:301);
    subject "count-hop" (module Mac_routing.Count_hop) ~n ~k:2
      ~rate:(Qrat.make 3 5) ~burst:(Qrat.of_int 2)
      (fun () -> Pattern.uniform ~n ~seed:302);
    subject "k-cycle" (Mac_routing.K_cycle.algorithm ~n:nc ~k:4) ~n:nc ~k:4
      ~rate:(Qrat.mul (Qrat.make 1 2) (Bounds.k_cycle_rate_q ~n:nc ~k:4))
      ~burst:(Qrat.of_int 2)
      (fun () -> Pattern.uniform ~n:nc ~seed:303);
    subject "k-clique" (Mac_routing.K_clique.algorithm ~n:nc ~k:4) ~n:nc ~k:4
      ~rate:(Bounds.k_clique_latency_rate_q ~n:nc ~k:4) ~burst:(Qrat.of_int 2)
      (fun () -> Pattern.uniform ~n:nc ~seed:304) ]

(* The fault plans swept per subject: a fault-free baseline, crash-restart
   at two rates phi, crash-with-drop, a scripted crash-stop, a scripted
   jam window, and random jamming. Plans depend on (n, rounds), so they
   are built per subject. *)
let plans ~scale ~n ~rounds =
  let restart_after = max 50 (rounds / 100) in
  let phi_lo, phi_hi =
    Scenario.scaled ~scale ~quick:(2e-4, 1e-3) ~full:(1e-4, 5e-4)
  in
  let jam_len = max 10 (rounds / 50) in
  let q = rounds / 4 in
  [ ("none", Fault_plan.empty);
    ( "crash-lo",
      Fault_plan.random ~seed:401 ~n ~rounds ~crash_rate:phi_lo ~restart_after
        () );
    ( "crash-hi",
      Fault_plan.random ~seed:402 ~n ~rounds ~crash_rate:phi_hi ~restart_after
        () );
    ( "crash-drop",
      Fault_plan.random ~seed:403 ~n ~rounds ~crash_rate:phi_lo ~restart_after
        ~queue:Fault_plan.Drop () );
    ( "crash-stop",
      Fault_plan.scripted ~name:"crash-stop"
        [ (q, Fault_plan.Crash { station = 1; queue = Fault_plan.Retain }) ] );
    ( "jam-window",
      Fault_plan.scripted ~name:"jam-window"
        (List.init jam_len (fun i -> (q + i, Fault_plan.Jam))) );
    ( "jam-random",
      Fault_plan.random ~seed:404 ~n ~rounds ~jam_rate:0.01 () ) ]

let header =
  [ "algorithm"; "plan"; "injected"; "delivered"; "del%"; "lost"; "crashes";
    "restarts"; "jammed"; "peak-q"; "growth"; "recovery"; "max-delay" ]

let row ~algo ~plan (outcome : Scenario.outcome) =
  let s = outcome.summary in
  let f = s.faults in
  let del_pct =
    if s.injected = 0 then "-"
    else
      Printf.sprintf "%.1f"
        (100.0 *. float_of_int s.delivered /. float_of_int s.injected)
  in
  let recovery =
    if f.last_fault_round < 0 then "-"
    else if f.recovery_rounds < 0 then "never"
    else string_of_int f.recovery_rounds
  in
  [ algo; plan; string_of_int s.injected; string_of_int s.delivered;
    del_pct; string_of_int f.lost_to_crash; string_of_int f.crashes;
    string_of_int f.restarts; string_of_int f.jammed_rounds;
    string_of_int f.post_fault_peak_queue;
    string_of_int (f.post_fault_peak_queue - f.pre_fault_queue);
    recovery;
    string_of_int (int_of_float (Scenario.worst_delay s)) ]

(* One point per (subject, plan): the subject's spec with the plan's
   rounds, drain and faults. *)
let points ~scale =
  let rounds = Scenario.scaled ~scale ~quick:15_000 ~full:80_000 in
  List.concat_map
    (fun (subject : Scenario.spec) ->
      List.map
        (fun (plan_label, plan) ->
          Figures.Run
            ( { subject with
                id = Printf.sprintf "resilience/%s/%s" subject.id plan_label;
                rounds;
                drain = rounds / 2;
                faults = (if Fault_plan.is_empty plan then None else Some plan) },
              row ~algo:subject.id ~plan:plan_label ))
        (plans ~scale ~n:subject.n ~rounds))
    (subjects ~scale)

let figure =
  { Figures.id = "resilience";
    title = "Table-1 algorithms under fault plans, one row per (algorithm, plan)";
    header;
    points }
