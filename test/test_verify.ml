(* The differential harness: the engine against the naive oracle.

   Any disagreement — one summary field, one event — fails with the
   verdict printed. The deterministic sweep pins seeds 0..219 so a
   regression is reproducible by seed; the qcheck property adds fresh
   random seeds on every run (a divergence it finds is a real drift bug,
   never test flakiness, so the extra nondeterminism only adds power). *)

open Mac_verify

let check_pair seed =
  let v = Diff.run_pair (Diff.random ~seed) in
  if not (Diff.agrees v) then
    Alcotest.failf "divergence at seed %d:@.%a" seed Diff.pp_verdict v

let test_deterministic_sweep () =
  for seed = 0 to 219 do
    check_pair seed
  done

let test_events_nonempty () =
  (* sanity: the comparison is not vacuous — streams carry real events *)
  let v = Diff.run_pair (Diff.random ~seed:1) in
  Alcotest.(check bool) "compared a real stream" true (v.Diff.events > 100)

let test_jobs_invariance () =
  (* the pooled driver returns the same verdicts in the same order; one
     list of specs drives both batches *)
  let specs = List.init 6 (fun seed -> Diff.random ~seed) in
  let seq = Diff.run_pairs ~jobs:1 specs in
  let par = Diff.run_pairs ~jobs:2 specs in
  List.iter2
    (fun (a : Diff.verdict) (b : Diff.verdict) ->
      Alcotest.(check string) "same id" a.id b.id;
      Alcotest.(check int) "same events" a.events b.events;
      Alcotest.(check bool) "both agree" (Diff.agrees a) (Diff.agrees b))
    seq par

(* ---- sparse-mode certification ---- *)

let check_sparse seed =
  let v = Diff.certify_sparse (Diff.random_sparse ~seed) in
  if not (Diff.agrees v) then
    Alcotest.failf "sparse divergence at seed %d:@.%a" seed Diff.pp_verdict v

let test_sparse_deterministic_sweep () =
  for seed = 0 to 39 do
    check_sparse seed
  done

let test_sparse_batch_jobs_invariance () =
  let specs = List.init 6 (fun seed -> Diff.random_sparse ~seed) in
  let seq = Diff.certify_sparse_batch ~jobs:1 specs in
  let par = Diff.certify_sparse_batch ~jobs:2 specs in
  List.iter2
    (fun (a : Diff.verdict) (b : Diff.verdict) ->
      Alcotest.(check string) "same id" a.id b.id;
      Alcotest.(check bool) "both agree" (Diff.agrees a) (Diff.agrees b))
    seq par

let qcheck_sparse_random_seeds =
  QCheck.Test.make ~name:"sparse_engine_matches_dense_on_random_seeds"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      Diff.agrees (Diff.certify_sparse (Diff.random_sparse ~seed)))

let qcheck_random_seeds =
  QCheck.Test.make ~name:"engine_matches_oracle_on_random_seeds" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed -> Diff.agrees (Diff.run_pair (Diff.random ~seed)))

let () =
  Alcotest.run "verify"
    [ ("differential",
       [ Alcotest.test_case "seeds 0..219" `Slow test_deterministic_sweep;
         Alcotest.test_case "streams are real" `Quick test_events_nonempty;
         Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
         QCheck_alcotest.to_alcotest qcheck_random_seeds ]);
      ("sparse",
       [ Alcotest.test_case "seeds 0..39" `Slow test_sparse_deterministic_sweep;
         Alcotest.test_case "batch jobs invariance" `Quick
           test_sparse_batch_jobs_invariance;
         QCheck_alcotest.to_alcotest qcheck_sparse_random_seeds ]) ]
