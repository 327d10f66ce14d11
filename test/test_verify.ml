(* The differential harness: the engine against the naive oracle, and
   the sparse engine against the dense one.

   Any disagreement — one summary field, one event — fails with the
   verdict printed. The deterministic sweeps pin seeds so a regression is
   reproducible by seed; the qcheck properties add fresh random seeds on
   every run (a divergence they find is a real drift bug, never test
   flakiness, so the extra nondeterminism only adds power). A sparse hook
   that lies must be caught. *)

open Mac_verify

let check_seed reference random seed =
  let v = Diff.check reference (random ~seed) in
  if not (Diff.agrees v) then
    Alcotest.failf "divergence at seed %d:@.%a" seed Diff.pp_verdict v

(* The pooled driver returns the same verdicts in the same order; one
   list of specs drives both batches. *)
let check_jobs_invariance reference random =
  let specs = List.init 6 (fun seed -> random ~seed) in
  let seq = Diff.check_all ~jobs:1 reference specs in
  let par = Diff.check_all ~jobs:2 reference specs in
  List.iter2
    (fun (a : Diff.verdict) (b : Diff.verdict) ->
      Alcotest.(check string) "same id" a.id b.id;
      Alcotest.(check int) "same events" a.events b.events;
      Alcotest.(check bool) "both agree" (Diff.agrees a) (Diff.agrees b))
    seq par

let test_deterministic_sweep () =
  for seed = 0 to 219 do
    check_seed Diff.Oracle Diff.random seed
  done

let test_events_nonempty () =
  (* sanity: the comparison is not vacuous — streams carry real events *)
  let v = Diff.check Diff.Oracle (Diff.random ~seed:1) in
  Alcotest.(check bool) "compared a real stream" true (v.Diff.events > 100)

(* A pattern maker that hands every run a new seed: the engine runs first
   and draws seed 1, the oracle seed 2. The traffic differs, so the
   verdict must name the summary fields that differ, with the engine's
   value under [engine] and the oracle's under [oracle] — not only the
   first event where the streams part. *)
let test_oracle_fields_compared () =
  let n = 5 in
  let spec pattern =
    Mac_experiments.Scenario.spec_q ~id:"two seeds"
      ~algorithm:(module Mac_routing.Orchestra) ~n ~k:3
      ~rate:(Mac_channel.Qrat.make 3 4) ~burst:(Mac_channel.Qrat.of_int 2)
      ~pattern ~rounds:400 ()
  in
  let uniform seed () = Mac_adversary.Pattern.uniform ~n ~seed in
  let draws = ref 0 in
  let v =
    Diff.check Diff.Oracle
      (spec (fun () ->
           incr draws;
           uniform !draws ()))
  in
  let engine =
    let s = spec (uniform 1) in
    Mac_experiments.Scenario.simulate ~config:(Diff.config s) s
  in
  let oracle, _ =
    let s = spec (uniform 2) in
    Oracle.run ~algorithm:s.algorithm ~n ~k:s.k ~rate:s.rate ~burst:s.burst
      ~pacing:s.pacing ~pattern:(s.pattern ()) ~rounds:s.rounds ~drain:s.drain
      ()
  in
  match
    List.find_opt (fun (m : Diff.mismatch) -> m.what = "max_delay") v.mismatches
  with
  | None -> Alcotest.failf "max_delay not named:@.%a" Diff.pp_verdict v
  | Some m ->
    Alcotest.(check string) "engine side" (string_of_int engine.max_delay)
      m.engine;
    (match List.assoc "max_delay" oracle with
     | Mac_sim.Metrics.Int d ->
       Alcotest.(check string) "oracle side" (string_of_int d) m.oracle
     | _ -> Alcotest.fail "max_delay is not an int")

let test_jobs_invariance () = check_jobs_invariance Diff.Oracle Diff.random

let qcheck_random_seeds =
  QCheck.Test.make ~name:"engine_matches_oracle_on_random_seeds" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed -> Diff.agrees (Diff.check Diff.Oracle (Diff.random ~seed)))

(* ---- sparse-mode certification ---- *)

let test_sparse_deterministic_sweep () =
  for seed = 0 to 39 do
    check_seed Diff.Dense Diff.random_sparse seed
  done

let test_sparse_batch_jobs_invariance () =
  check_jobs_invariance Diff.Dense Diff.random_sparse

let qcheck_sparse_random_seeds =
  QCheck.Test.make ~name:"sparse_engine_matches_dense_on_random_seeds"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      Diff.agrees (Diff.check Diff.Dense (Diff.random_sparse ~seed)))

(* The families whose hooks fast-forward station state, drawn with fault
   plans, pacing and drains. *)
let qcheck_oblivious_random_seeds =
  QCheck.Test.make ~name:"fast_forward_matches_dense_on_random_seeds"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      Diff.agrees (Diff.check Diff.Dense (Diff.random_oblivious ~seed)))

let test_oblivious_deterministic_sweep () =
  for seed = 0 to 39 do
    check_seed Diff.Dense Diff.random_oblivious seed
  done

(* Pair-TDMA whose sparse on-set is one round late: the sparse engine
   switches on last round's pair, so packets go undelivered. Run under
   [Diff.config] (no schedule cross-check), only the harness can see it. *)
module Late_pair_tdma = struct
  include Mac_routing.Pair_tdma

  let sparse =
    Option.map
      (fun make ~n ~k ->
        let (sp : _ Mac_channel.Algorithm.sparse) = make ~n ~k in
        let on_set ~round = sp.on_set ~round:(max 0 (round - 1)) in
        { sp with on_set })
      Mac_routing.Pair_tdma.sparse
end

let test_lying_hook_caught () =
  let n = 5 in
  let spec =
    Mac_experiments.Scenario.spec_q ~id:"late on_set"
      ~algorithm:(module Late_pair_tdma) ~n ~k:2
      ~rate:(Mac_channel.Qrat.make 1 30) ~burst:(Mac_channel.Qrat.of_int 1)
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n ~seed:3)
      ~rounds:2000 ()
  in
  let v = Diff.check Diff.Dense spec in
  Alcotest.(check bool) "disagrees" false (Diff.agrees v);
  (* a summary field, named with its run; the run under test is [engine]
     and the dense reference [oracle] *)
  let dense =
    Mac_experiments.Scenario.simulate ~config:(Diff.config spec) spec
  in
  (match
     List.find_opt
       (fun (m : Diff.mismatch) -> m.what = "sparse.undelivered")
       v.mismatches
   with
   | None ->
     Alcotest.failf "sparse.undelivered not named:@.%a" Diff.pp_verdict v
   | Some m ->
     Alcotest.(check string) "dense reference under oracle"
       (string_of_int dense.undelivered) m.oracle);
  let honest = { spec with algorithm = (module Mac_routing.Pair_tdma) } in
  Alcotest.(check bool) "the honest hook agrees" true
    (Diff.agrees (Diff.check Diff.Dense honest))

(* k-Clique whose fast-forward stops one round short of the landing: the
   ring of the pair active in a stretch's last round is left one step
   behind. Every round has an active pair, so every skip lies. *)
let short_fast_forward (module A : Mac_channel.Algorithm.S) :
    Mac_channel.Algorithm.t =
  (module struct
    include A

    let sparse =
      Option.map
        (fun make ~n ~k ->
          let (sp : A.state Mac_channel.Algorithm.sparse) = make ~n ~k in
          { sp with
            fast_forward =
              Option.map
                (fun ff states ~queues ~from ~until ->
                  ff states ~queues ~from ~until:(until - 1))
                sp.fast_forward })
        A.sparse
  end)

let test_lying_fast_forward_caught () =
  let n = 12 and k = 4 in
  let spec =
    Mac_experiments.Scenario.spec_q ~id:"short fast-forward"
      ~algorithm:(short_fast_forward (Mac_routing.K_clique.algorithm ~n ~k))
      ~n ~k ~rate:(Mac_channel.Qrat.make 3 100)
      ~burst:(Mac_channel.Qrat.of_int 2)
      ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n ~seed:3)
      ~rounds:3000 ()
  in
  let v = Diff.check Diff.Dense spec in
  Alcotest.(check bool) "disagrees" false (Diff.agrees v);
  (* the skipping run is caught on a summary field, with the dense
     reference under [oracle], and on the snapshot the lagging ring is
     written into *)
  let named what =
    List.find_opt (fun (m : Diff.mismatch) -> m.what = what) v.mismatches
  in
  let dense =
    Mac_experiments.Scenario.simulate ~config:(Diff.config spec) spec
  in
  (match named "sparse.max_delay" with
   | None ->
     Alcotest.failf "sparse.max_delay not named:@.%a" Diff.pp_verdict v
   | Some m ->
     Alcotest.(check string) "dense reference under oracle"
       (string_of_int dense.max_delay) m.oracle);
  if named "sparse.checkpoint[0]" = None then
    Alcotest.failf "sparse.checkpoint[0] not named:@.%a" Diff.pp_verdict v;
  let honest =
    { spec with algorithm = Mac_routing.K_clique.algorithm ~n ~k }
  in
  Alcotest.(check bool) "the honest hook agrees" true
    (Diff.agrees (Diff.check Diff.Dense honest))

let () =
  Alcotest.run "verify"
    [ ("differential",
       [ Alcotest.test_case "seeds 0..219" `Slow test_deterministic_sweep;
         Alcotest.test_case "streams are real" `Quick test_events_nonempty;
         Alcotest.test_case "summary fields compared" `Quick
           test_oracle_fields_compared;
         Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
         QCheck_alcotest.to_alcotest qcheck_random_seeds ]);
      ("sparse",
       [ Alcotest.test_case "seeds 0..39" `Slow test_sparse_deterministic_sweep;
         Alcotest.test_case "batch jobs invariance" `Quick
           test_sparse_batch_jobs_invariance;
         QCheck_alcotest.to_alcotest qcheck_sparse_random_seeds;
         Alcotest.test_case "lying hook caught" `Quick
           test_lying_hook_caught;
         Alcotest.test_case "fast-forward seeds 0..39" `Slow
           test_oblivious_deterministic_sweep;
         QCheck_alcotest.to_alcotest qcheck_oblivious_random_seeds;
         Alcotest.test_case "lying fast-forward caught" `Quick
           test_lying_fast_forward_caught ]) ]
