(* Checkpoint/resume equivalence: a run interrupted at a checkpoint and
   resumed from it must be bit-identical to the uninterrupted run — the
   event stream, the summary and the queue series — across the Table-1
   catalog and random configurations (fault plans included). The file
   layer must round-trip snapshots and reject junk, and the engine must
   reject snapshots that do not match the resuming configuration. *)

open Mac_verify
module Scenario = Mac_experiments.Scenario

exception Interrupted

(* Run a spec to completion (optionally from a snapshot), recording the
   full typed event stream. *)
let complete ?(mode = Mac_sim.Engine.Dense) ?resume (r : Scenario.spec) =
  let events = ref [] in
  let sink =
    Mac_sim.Sink.make (fun ~round ev -> events := (round, ev) :: !events)
  in
  let summary =
    Scenario.simulate ?resume
      ~config:{ (Diff.config r) with mode; sink = Some sink }
      r
  in
  (summary, List.rev !events)

(* Run until the checkpoint at round [at] fires, then crash: raising from
   [on_checkpoint] aborts the run mid-loop exactly like a kill at that
   round boundary would. Returns the snapshot and the event prefix the
   run emitted before dying. *)
let interrupt ?(mode = Mac_sim.Engine.Dense) ?(with_sink = true) ~at
    (r : Scenario.spec) =
  let snap = ref None in
  let events = ref [] in
  let sink =
    Mac_sim.Sink.make (fun ~round ev -> events := (round, ev) :: !events)
  in
  let config =
    { (Diff.config r) with
      mode;
      sink = (if with_sink then Some sink else None);
      checkpoint_every = at;
      on_checkpoint = Some (fun s -> snap := Some s; raise Interrupted) }
  in
  (match Scenario.simulate ~config r with
   | _ -> Alcotest.failf "%s: checkpoint at round %d never fired" r.id at
   | exception Interrupted -> ());
  (Option.get !snap, List.rev !events)

let check_events id expected got =
  if expected <> got then begin
    let show (round, ev) =
      Printf.sprintf "r%d %s" round (Mac_channel.Event.to_string ev)
    in
    let rec first i ea eg =
      match (ea, eg) with
      | [], [] ->
        Alcotest.failf "%s: streams differ but no divergent event found" id
      | e :: _, [] ->
        Alcotest.failf "%s: resumed stream ends at event %d; expected %s" id i
          (show e)
      | [], e :: _ ->
        Alcotest.failf "%s: resumed stream has extra event %d: %s" id i (show e)
      | e :: ta, e' :: tg ->
        if e <> e' then
          Alcotest.failf "%s: first divergence at event %d: expected %s, got %s"
            id i (show e) (show e')
        else first (i + 1) ta tg
    in
    first 0 expected got
  end

let check_summaries id a b =
  Alcotest.(check string) (id ^ ": summary")
    (Mac_sim.Export.summary_json a) (Mac_sim.Export.summary_json b);
  Alcotest.(check string) (id ^ ": queue series")
    (Mac_sim.Export.series_csv a) (Mac_sim.Export.series_csv b)

(* The core property: the spec run straight through, and the same spec
   interrupted at [at] and resumed from that snapshot, give the same
   summary and event stream. *)
let check_resume ~at (r : Scenario.spec) =
  match complete r with
  | exception Mac_sim.Engine.Protocol_violation _ ->
    (* some random configs legitimately die on a protocol violation;
       there is no completed run to resume, so nothing to compare. A
       violation below, in the interrupted or resumed run of a config
       whose straight run finished, still fails the test: determinism
       means it can only come from a resume bug. *)
    ()
  | s_sum, s_ev ->
    let snap, prefix = interrupt ~at r in
    let r_sum, suffix = complete ~resume:snap r in
    let id = Printf.sprintf "%s@%d" r.id at in
    check_summaries id s_sum r_sum;
    check_events id s_ev (prefix @ suffix)

let check_seed seed =
  let r = Diff.random ~seed in
  let rng = Mac_channel.Rng.create ~seed:(seed lxor 0x5bd1e995) in
  let at = 1 + Mac_channel.Rng.int rng r.rounds in
  check_resume ~at r

let test_random_sweep () =
  for seed = 0 to 39 do
    check_seed seed
  done

(* Resume at the injection/drain boundary: the snapshot round equals the
   configured rounds, so the resumed run executes only the drain. *)
let test_boundary_resume () =
  let r = Diff.random ~seed:17 in
  check_resume ~at:r.rounds r

let qcheck_random_configs =
  QCheck.Test.make ~name:"resume_bit_identical_on_random_configs" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed -> check_seed seed; true)

(* The equivalence check itself runs inside batch workers at jobs 1 and
   2: resumed runs stay bit-identical off the main domain too. *)
let test_jobs_invariance () =
  let seeds = [ 101; 202; 303; 404 ] in
  List.iter
    (fun jobs ->
      ignore
        (Mac_experiments.Scenario.run_batch ~jobs
           (List.map (fun seed () -> check_seed seed) seeds)))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Table-1 catalog: every cell of every row, rounds capped so the three
   runs per cell stay cheap (the resume logic is round-count agnostic). *)

let rounds_cap = 1_500

let test_table1_catalog () =
  List.iteri
    (fun i (s : Scenario.spec) ->
      let s =
        { s with rounds = min s.rounds rounds_cap;
                 drain = min s.drain rounds_cap }
      in
      check_resume ~at:(1 + ((i * 397) mod s.rounds)) s)
    (Mac_experiments.Table1.catalog ~scale:`Quick)

(* ------------------------------------------------------------------ *)
(* Checkpoint files. *)

let temp_path suffix = Filename.temp_file "mac_ckpt" suffix

let test_file_roundtrip () =
  let r = Diff.random ~seed:5 in
  let at = max 1 (r.rounds / 2) in
  let snap, prefix = interrupt ~at r in
  let path = temp_path ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Mac_sim.Checkpoint.write ~path snap;
      match Mac_sim.Checkpoint.read ~path with
      | Error msg -> Alcotest.fail msg
      | Ok snap' ->
        Alcotest.(check int) "round survives the file"
          (Mac_sim.Engine.snapshot_round snap)
          (Mac_sim.Engine.snapshot_round snap');
        Alcotest.(check string) "algorithm survives the file"
          (Mac_sim.Engine.snapshot_algorithm snap)
          (Mac_sim.Engine.snapshot_algorithm snap');
        (* resuming from the re-read snapshot is still bit-identical *)
        let s_sum, s_ev = complete r in
        let r_sum, suffix = complete ~resume:snap' r in
        check_summaries "file-roundtrip" s_sum r_sum;
        check_events "file-roundtrip" s_ev (prefix @ suffix);
        let d = Mac_sim.Checkpoint.describe snap' in
        Alcotest.(check bool)
          (Printf.sprintf "describe mentions the algorithm (%s)" d)
          true
          (let name = Mac_sim.Engine.snapshot_algorithm snap' in
           let rec has i =
             i + String.length name <= String.length d
             && (String.sub d i (String.length name) = name || has (i + 1))
           in
           has 0))

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an error" what

let write_string path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_string path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_file_errors () =
  let missing = temp_path ".bin" in
  Sys.remove missing;
  expect_error "missing file" (Mac_sim.Checkpoint.read ~path:missing);
  let path = temp_path ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_string path "not a checkpoint\n";
      expect_error "bad magic" (Mac_sim.Checkpoint.read ~path);
      write_string path "MACCKPT 999\n{}\n";
      expect_error "future version" (Mac_sim.Checkpoint.read ~path);
      (* a real checkpoint, truncated mid-blob *)
      let snap, _ = interrupt ~at:50 (Diff.random ~seed:3) in
      Mac_sim.Checkpoint.write ~path snap;
      let whole = read_string path in
      write_string path (String.sub whole 0 (String.length whole - 20));
      expect_error "truncated blob" (Mac_sim.Checkpoint.read ~path));
  (* a directory opens without error and fails at the first read; with no
     .prev to salvage, the error names the path *)
  Helpers.with_temp_dir "mac_ckpt" (fun dir ->
      match Mac_sim.Checkpoint.read_latest ~path:dir with
      | Ok _ -> Alcotest.fail "directory: expected an error"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "directory: names the path (got %S)" msg)
          true
          (String.starts_with ~prefix:(dir ^ ": ") msg))

(* v2 corruption: any truncation, or a single flipped bit anywhere in
   the file — magic line, metadata, CRC digits, blob — must surface as a
   clean [Error], never an [Ok] or a crash. The header is covered by the
   magic/version check, the metadata line by meta_crc32, the blob by
   blob_crc32. *)
let qcheck_corruption =
  let whole =
    lazy
      (let snap, _ = interrupt ~at:40 (Diff.random ~seed:21) in
       let path = temp_path ".bin" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
         (fun () ->
           Mac_sim.Checkpoint.write ~path snap;
           read_string path))
  in
  QCheck.Test.make ~name:"corrupt_v2_checkpoint_rejected_cleanly" ~count:80
    QCheck.(pair bool (int_range 0 10_000_000))
    (fun (truncate, r) ->
      let whole = Lazy.force whole in
      let len = String.length whole in
      let corrupt =
        if truncate then String.sub whole 0 (r mod len)
        else begin
          let pos = r mod len in
          let bit = r / len mod 8 in
          let b = Bytes.of_string whole in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          Bytes.to_string b
        end
      in
      let path = temp_path ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          write_string path corrupt;
          match Mac_sim.Checkpoint.read ~path with
          | Error _ -> true
          | Ok _ -> false))

(* Keep-last-good rotation: the previous generation survives as .prev,
   and a corrupt or missing newest file salvages it. *)
let test_rotation_salvage () =
  let r = Diff.random ~seed:23 in
  let c1, _ = interrupt ~at:30 r in
  let c2, _ = interrupt ~at:60 r in
  let path = temp_path ".bin" in
  (* temp_path creates the file; rotation wants a fresh path *)
  Sys.remove path;
  let prev = Mac_sim.Checkpoint.prev_path path in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; prev ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      Mac_sim.Checkpoint.write_rotated ~path c1;
      Alcotest.(check bool) "no .prev after the first write" false
        (Sys.file_exists prev);
      Mac_sim.Checkpoint.write_rotated ~path c2;
      Alcotest.(check bool) ".prev exists after the second write" true
        (Sys.file_exists prev);
      (match Mac_sim.Checkpoint.read_latest ~path with
       | Ok (snap, `Current) ->
         Alcotest.(check int) "newest generation wins" 60
           (Mac_sim.Engine.snapshot_round snap)
       | Ok (_, `Salvaged _) -> Alcotest.fail "intact newest must not salvage"
       | Error msg -> Alcotest.fail msg);
      (* flip one bit of the newest: the previous generation salvages *)
      let whole = read_string path in
      let bs = Bytes.of_string whole in
      let pos = Bytes.length bs / 2 in
      Bytes.set bs pos (Char.chr (Char.code (Bytes.get bs pos) lxor 0x10));
      write_string path (Bytes.to_string bs);
      (match Mac_sim.Checkpoint.read_latest ~path with
       | Ok (snap, `Salvaged reason) ->
         Alcotest.(check int) "salvaged the previous generation" 30
           (Mac_sim.Engine.snapshot_round snap);
         Alcotest.(check bool)
           (Printf.sprintf "salvage reason names the file (%s)" reason)
           true
           (String.length reason > 0)
       | Ok (_, `Current) -> Alcotest.fail "corrupt newest read as current"
       | Error msg -> Alcotest.fail msg);
      (* newest deleted entirely: still salvages *)
      Sys.remove path;
      (match Mac_sim.Checkpoint.read_latest ~path with
       | Ok (_, `Salvaged _) -> ()
       | Ok (_, `Current) -> Alcotest.fail "missing newest read as current"
       | Error msg -> Alcotest.fail msg);
      (* both gone: a plain error *)
      Sys.remove prev;
      match Mac_sim.Checkpoint.read_latest ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected an error with both generations gone")

(* Version-1 files carry no checksum, and nothing has written one since
   format v2: a v1 file is refused with the typed version error instead of
   handing unchecked bytes to [Marshal]. *)
let test_v1_rejected () =
  let snap, _ = interrupt ~at:25 (Diff.random ~seed:11) in
  let blob = Marshal.to_string (snap : Mac_sim.Engine.snapshot) [] in
  let path = temp_path ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_string path ("MACCKPT 1\n{\"legacy\": 1}\n" ^ blob);
      match Mac_sim.Checkpoint.read ~path with
      | Ok _ -> Alcotest.fail "a v1 checkpoint was read"
      | Error msg ->
        Alcotest.(check string) "the typed format-version error"
          (Printf.sprintf
             "%s: checkpoint format version 1 (this build reads only %d)" path
             Mac_sim.Checkpoint.format_version)
          msg)

(* ------------------------------------------------------------------ *)
(* Engine-side validation: a snapshot must match the resuming run. *)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_resume_validation () =
  let r = Diff.random ~seed:9 in
  let snap, _ = interrupt ~at:(max 1 (r.rounds / 2)) r in
  expect_invalid "wrong n" (fun () ->
      complete ~resume:snap { r with n = r.n + 1 });
  expect_invalid "wrong rounds" (fun () ->
      complete ~resume:snap { r with rounds = r.rounds + 1 });
  expect_invalid "wrong drain" (fun () ->
      complete ~resume:snap { r with drain = r.drain + 1 });
  let other : Mac_channel.Algorithm.t =
    if Mac_sim.Engine.snapshot_algorithm snap = "count-hop" then
      (module Mac_routing.Orchestra)
    else (module Mac_routing.Count_hop)
  in
  expect_invalid "wrong algorithm" (fun () ->
      complete ~resume:snap { r with algorithm = other })

(* Adjust-Window (which gained [aux_none]) and k-Subsets (which gained
   [rewalk]) are at state version 2. A snapshot taken while either was at
   version 1 is refused on resume with the typed state-version error, not
   decoded into the new layout. The old build is stood in for by the
   current module tagged version 1. *)
let test_state_version_refused () =
  let refused name (module A : Mac_channel.Algorithm.S) ~n ~k =
    let module V1 = struct
      include A

      let state_version = 1
    end in
    let rounds = 200 in
    let adversary () =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n ~seed:1)
    in
    let snap = ref None in
    let config =
      { (Mac_sim.Engine.default_config ~rounds) with
        checkpoint_every = 100;
        on_checkpoint =
          Some (fun s -> if Option.is_none !snap then snap := Some s) }
    in
    ignore
      (Mac_sim.Engine.run ~config ~algorithm:(module V1) ~n ~k
         ~adversary:(adversary ()) ~rounds ());
    match
      Mac_sim.Engine.start
        ~config:(Mac_sim.Engine.default_config ~rounds)
        ~resume:(Option.get !snap) ~algorithm:(module A) ~n ~k
        ~adversary:(adversary ()) ~rounds ()
    with
    | _ -> Alcotest.failf "a version-1 %s snapshot was resumed" A.name
    | exception Invalid_argument msg ->
      Alcotest.(check string) (A.name ^ ": the typed state-version error")
        (Printf.sprintf
           "Engine.run: cannot resume: %s state version 1 (current 2)" name)
        msg
  in
  refused "adjust-window" (module Mac_routing.Adjust_window) ~n:4 ~k:2;
  refused "k-subsets(k=3,mbtf)" (Mac_routing.K_subsets.algorithm ~n:6 ~k:3 ())
    ~n:6 ~k:3

(* Telemetry sampling must not perturb checkpoints: the snapshot file
   written at the same round is byte-identical whether or not a probe is
   attached (with cadences chosen so samples and checkpoints interleave). *)
let test_checkpoint_bytes_telemetry_invariant () =
  let run telemetry =
    let path = temp_path ".bin" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let adversary =
          Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 7 10)
            ~burst:(Mac_channel.Qrat.of_int 2)
            (Mac_adversary.Pattern.uniform ~n:6 ~seed:29)
        in
        let config =
          { (Mac_sim.Engine.default_config ~rounds:2_000) with
            drain_limit = 500;
            checkpoint_every = 300;
            on_checkpoint = Some (fun s -> Mac_sim.Checkpoint.write ~path s);
            telemetry }
        in
        let summary =
          Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop)
            ~n:6 ~k:2 ~adversary ~rounds:2_000 ()
        in
        (summary, read_string path))
  in
  let s_off, bytes_off = run None in
  let probe = Mac_sim.Telemetry.probe ~every:77 (Mac_sim.Telemetry.create ()) in
  let s_on, bytes_on = run (Some probe) in
  Alcotest.(check bool) "summaries identical" true (s_off = s_on);
  Alcotest.(check bool) "probe saw samples" true
    (Mac_sim.Telemetry.sample probe.Mac_sim.Telemetry.registry <> []);
  Alcotest.(check bool) "last checkpoint byte-identical" true
    (bytes_off = bytes_on)

(* Satellite regression: ~rounds disagreeing with config.rounds used to be
   silently resolved in config's favour; it must be rejected. *)
let test_rounds_config_mismatch () =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:6 ~seed:1)
  in
  let config = Mac_sim.Engine.default_config ~rounds:100 in
  expect_invalid "rounds/config mismatch" (fun () ->
      Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Orchestra) ~n:6
        ~k:3 ~adversary ~rounds:99 ())

(* ------------------------------------------------------------------ *)
(* Scenario-level resume: completion markers skip finished scenarios and
   replay their recorded JSON rows byte-for-byte. *)

let small_spec ~id ~seed =
  Mac_experiments.Scenario.spec_q ~id ~algorithm:(module Mac_routing.Count_hop)
    ~n:6 ~k:2 ~rate:(Mac_channel.Qrat.make 1 2)
      ~burst:(Mac_channel.Qrat.of_int 2)
    ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n:6 ~seed)
    ~rounds:800 ~drain:200 ()

let test_scenario_resumable () =
  Helpers.with_temp_dir "mac_resume" (fun dir ->
      let checks = [ Mac_experiments.Scenario.cap_at_most 2 ] in
      let run () =
        Mac_experiments.Scenario.run_resumable ~checks ~resume_dir:dir
          ~experiment:"exp" (small_spec ~id:"row/cell" ~seed:1)
      in
      let r1 = run () in
      (match r1 with
       | Mac_experiments.Scenario.Fresh _ -> ()
       | Cached _ -> Alcotest.fail "first run must simulate");
      let r2 = run () in
      (match r2 with
       | Mac_experiments.Scenario.Cached _ -> ()
       | Fresh _ -> Alcotest.fail "second run must hit the marker");
      let json r = Mac_experiments.Scenario.resumed_json ~experiment:"exp" r in
      Alcotest.(check string) "replayed row is byte-identical" (json r1) (json r2);
      Alcotest.(check string) "id" "row/cell"
        (Mac_experiments.Scenario.resumed_id r2);
      Alcotest.(check string) "verdict"
        (Mac_experiments.Scenario.resumed_verdict r1)
        (Mac_experiments.Scenario.resumed_verdict r2);
      Alcotest.(check bool) "passed"
        (Mac_experiments.Scenario.resumed_passed r1)
        (Mac_experiments.Scenario.resumed_passed r2);
      (* a corrupt marker is a miss: the scenario reruns (deterministically,
         so the row comes back identical) and the marker is rewritten *)
      let marker =
        Mac_experiments.Scenario.marker_path ~resume_dir:dir "row/cell"
      in
      Alcotest.(check bool) "marker exists" true (Sys.file_exists marker);
      write_string marker "garbage";
      let r3 = run () in
      (match r3 with
       | Mac_experiments.Scenario.Fresh _ -> ()
       | Cached _ -> Alcotest.fail "corrupt marker must not be trusted");
      Alcotest.(check string) "rerun row matches" (json r1) (json r3);
      (match run () with
       | Mac_experiments.Scenario.Cached _ -> ()
       | Fresh _ -> Alcotest.fail "marker must be rewritten after the rerun"))

(* A half-finished sweep resumed at a different jobs count still produces
   the original rows, in order. *)
let test_resumable_batch_jobs () =
  let specs () = List.init 4 (fun i ->
      small_spec ~id:(Printf.sprintf "batch/cell-%d" i) ~seed:(10 + i))
  in
  let rows ~jobs ~dir specs =
    Mac_experiments.Scenario.run_batch ~jobs
      (List.map
         (fun s () ->
           Mac_experiments.Scenario.resumed_json ~experiment:"batch"
             (Mac_experiments.Scenario.run_resumable ~resume_dir:dir
                ~experiment:"batch" s))
         specs)
  in
  let reference =
    Helpers.with_temp_dir "mac_resume" (fun dir ->
        rows ~jobs:1 ~dir (specs ()))
  in
  Helpers.with_temp_dir "mac_resume" (fun dir ->
      (* first two cells complete, then the sweep dies *)
      ignore (rows ~jobs:1 ~dir (List.filteri (fun i _ -> i < 2) (specs ())));
      let resumed = rows ~jobs:2 ~dir (specs ()) in
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check string) (Printf.sprintf "row %d" i) a b)
        (List.combine reference resumed))

(* ------------------------------------------------------------------ *)
(* Sparse mode. A low-rate pair-TDMA run spends most rounds in analytic
   skips; the checkpoint cadence forces each skip to land exactly on the
   snapshot boundary, so the snapshot below is taken "mid-skip" — the
   state the fast path reconstructs, never stepped to concretely. *)

let sparse_spec =
  Scenario.spec_q ~id:"sparse-mid-skip"
    ~algorithm:(module Mac_routing.Pair_tdma) ~n:8 ~k:2
    ~rate:(Mac_channel.Qrat.make 1 40) ~burst:(Mac_channel.Qrat.of_int 2)
    ~pattern:(fun () -> Mac_adversary.Pattern.uniform ~n:8 ~seed:33)
    ~rounds:3_000 ~drain:400 ()

(* The families whose hooks fast-forward station state across a skip:
   their rings (and k-Subsets' phase allocation) must land exactly where
   the dense run leaves them. *)
let fast_forward_specs =
  let spec id algorithm ~n ~k ~rate pattern =
    Scenario.spec_q ~id ~algorithm ~n ~k ~rate
      ~burst:(Mac_channel.Qrat.of_int 2) ~pattern ~rounds:3_000 ~drain:400 ()
  in
  let uniform n seed () = Mac_adversary.Pattern.uniform ~n ~seed in
  [ spec "k-cycle-mid-skip" (Mac_routing.K_cycle.algorithm ~n:12 ~k:4) ~n:12
      ~k:4 ~rate:(Mac_channel.Qrat.make 3 100) (uniform 12 33);
    spec "k-clique-mid-skip" (Mac_routing.K_clique.algorithm ~n:12 ~k:4)
      ~n:12 ~k:4 ~rate:(Mac_channel.Qrat.make 3 100) (uniform 12 33);
    (* sparse enough that skips cross phase starts with every queue
       assigned *)
    spec "k-subsets-mid-skip" (Mac_routing.K_subsets.algorithm ~n:6 ~k:3 ())
      ~n:6 ~k:3 ~rate:(Mac_channel.Qrat.make 1 60) (uniform 6 33) ]

(* A snapshot written by a skipping sparse run resumes bit-identically —
   in sparse mode and, cross-mode, in dense mode — and one written by a
   dense run resumes bit-identically in sparse mode; both snapshots are
   the same bytes. *)
let test_sparse_resume_mid_skip () =
  List.iter
    (fun (spec : Scenario.spec) ->
      let s_sum, s_ev = complete spec in
      let at = 1_237 in  (* coprime to every cycle here: lands inside stretches *)
      let snapshot mode =
        let snap, _ = interrupt ~mode ~with_sink:false ~at spec in
        Alcotest.(check int) (spec.id ^ ": snapshot at the cadence round") at
          (Mac_sim.Engine.snapshot_round snap);
        snap
      in
      let sparse_snap = snapshot Mac_sim.Engine.Sparse in
      let dense_snap = snapshot Mac_sim.Engine.Dense in
      Alcotest.(check bool) (spec.id ^ ": snapshot bytes") true
        (Marshal.to_string sparse_snap [] = Marshal.to_string dense_snap []);
      let expected_suffix = List.filter (fun (round, _) -> round >= at) s_ev in
      List.iter
        (fun (label, snap, mode) ->
          let label = spec.id ^ ": " ^ label in
          let r_sum, suffix = complete ~mode ~resume:snap spec in
          check_summaries label s_sum r_sum;
          check_events label expected_suffix suffix)
        [ ("sparse-resumes-sparse", sparse_snap, Mac_sim.Engine.Sparse);
          ("sparse-resumes-dense", sparse_snap, Mac_sim.Engine.Dense);
          ("dense-resumes-sparse", dense_snap, Mac_sim.Engine.Sparse) ])
    (sparse_spec :: fast_forward_specs)

(* Adjust-Window records in its state which destinations its
   auxiliary-stage lookups found nothing for, and that stage first runs at
   round 8,576 for n = 4 — past the golden points' horizon. A 40,000-round run checkpointed every 1,500 rounds
   snapshots before, inside and after several auxiliary stages; resumed
   from each snapshot, the run must end with the uninterrupted run's
   summary and write its later checkpoints byte for byte. *)
let test_adjust_window_auxiliary_resume () =
  let rounds = 40_000 in
  let run ?resume () =
    let snaps = ref [] in
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n:4 ~seed:1)
    in
    let config =
      { (Mac_sim.Engine.default_config ~rounds) with
        checkpoint_every = 1_500;
        on_checkpoint = Some (fun snap -> snaps := snap :: !snaps) }
    in
    let summary =
      Mac_sim.Engine.run ~config ?resume
        ~algorithm:(module Mac_routing.Adjust_window) ~n:4 ~k:2 ~adversary
        ~rounds ()
    in
    (Marshal.to_string summary [], List.rev !snaps)
  in
  let bytes snaps = List.map (fun s -> Marshal.to_string s []) snaps in
  let summary, snaps = run () in
  Alcotest.(check int) "snapshots" 26 (List.length snaps);
  List.iteri
    (fun i snap ->
      let label =
        Printf.sprintf "resumed at %d" (Mac_sim.Engine.snapshot_round snap)
      in
      let resumed, later = run ~resume:snap () in
      Alcotest.(check bool) (label ^ ": summary bytes") true
        (String.equal summary resumed);
      Alcotest.(check bool) (label ^ ": later checkpoint bytes") true
        (bytes (List.filteri (fun j _ -> j > i) snaps) = bytes later))
    snaps

(* Dense and sparse runs of the same config write byte-identical
   checkpoint files at every cadence point — for the fast-forwarding
   families too, whose skips land on each one. *)
let test_sparse_checkpoint_bytes () =
  List.iter
    (fun (spec : Scenario.spec) ->
      let collect mode =
        let snaps = ref [] in
        let config =
          { (Diff.config spec) with
            mode;
            checkpoint_every = 449;
            on_checkpoint =
              Some (fun s -> snaps := Marshal.to_string s [] :: !snaps) }
        in
        ignore (Scenario.simulate ~config spec);
        List.rev !snaps
      in
      let dense = collect Mac_sim.Engine.Dense in
      let sparse = collect Mac_sim.Engine.Sparse in
      Alcotest.(check int) (spec.id ^ ": same checkpoint count")
        (List.length dense) (List.length sparse);
      Alcotest.(check bool) (spec.id ^ ": several cadence points") true
        (List.length dense > 3);
      List.iteri
        (fun i (d, s) ->
          if not (String.equal d s) then
            Alcotest.failf "%s: checkpoint %d differs between dense and sparse"
              spec.id i)
        (List.combine dense sparse))
    (sparse_spec :: fast_forward_specs)

(* Checkpoint bytes pinned across builds: the paper-horizon operating
   points, run as `routing_sim run SPEC --rounds 5000 --seed 3
   --checkpoint FILE --checkpoint-every 2500` runs them, must write the
   metadata lines (blob length and CRC-32 included) recorded in
   golden/checkpoints.txt. The other byte checks compare two runs of one
   build; this one catches a change to queue, bucket or state encoding
   that alters every run alike. *)
let golden_points =
  let module P = Mac_adversary.Pattern in
  let uniform n = P.uniform ~n ~seed:3 in
  [ ("orchestra", (module Mac_routing.Orchestra : Mac_channel.Algorithm.S),
     8, 3, Mac_channel.Qrat.one, P.flood ~n:8 ~victim:2);
    ("count-hop", (module Mac_routing.Count_hop), 8, 2,
     Mac_channel.Qrat.make 4 5, uniform 8);
    ("adjust-window", (module Mac_routing.Adjust_window), 4, 2,
     Mac_channel.Qrat.make 1 2, uniform 4);
    ("k-cycle", Mac_routing.K_cycle.algorithm ~n:12 ~k:4, 12, 4,
     Mac_channel.Qrat.make 13 100, uniform 12);
    ("k-clique", Mac_routing.K_clique.algorithm ~n:12 ~k:4, 12, 4,
     Mac_channel.Qrat.make 3 100, uniform 12);
    ("k-subsets", Mac_routing.K_subsets.algorithm ~n:8 ~k:3 (), 8, 3,
     Mac_channel.Qrat.make 1 10, P.pair_flood ~src:1 ~dst:2) ]

let test_golden_checkpoint_bytes () =
  let path = temp_path ".bin" in
  let lines = ref [] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (label, algorithm, n, k, rate, pattern) ->
          let adversary =
            Mac_adversary.Adversary.create_q ~rate
              ~burst:(Mac_channel.Qrat.of_int 2) pattern
          in
          let on_checkpoint snap =
            Mac_sim.Checkpoint.write ~path snap;
            let meta =
              List.nth (String.split_on_char '\n' (read_string path)) 1
            in
            lines :=
              Printf.sprintf "%s %d %s" label
                (Mac_sim.Engine.snapshot_round snap) meta
              :: !lines
          in
          let config =
            { (Mac_sim.Engine.default_config ~rounds:5000) with
              mode = Mac_sim.Engine.Auto; checkpoint_every = 2500;
              on_checkpoint = Some on_checkpoint }
          in
          ignore
            (Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary
               ~rounds:5000 ()))
        golden_points);
  let golden =
    read_string "golden/checkpoints.txt"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "metadata lines" golden (List.rev !lines)

let () =
  Alcotest.run "checkpoint"
    [ ("resume-equivalence",
       [ Alcotest.test_case "random configs, seeds 0..39" `Slow
           test_random_sweep;
         Alcotest.test_case "injection/drain boundary" `Quick
           test_boundary_resume;
         Alcotest.test_case "jobs 1 and 2" `Quick test_jobs_invariance;
         Alcotest.test_case "Table-1 catalog" `Slow test_table1_catalog;
         QCheck_alcotest.to_alcotest qcheck_random_configs;
         Alcotest.test_case "sparse resume mid-skip" `Quick
           test_sparse_resume_mid_skip;
         Alcotest.test_case "sparse checkpoint bytes" `Quick
           test_sparse_checkpoint_bytes;
         Alcotest.test_case "adjust-window auxiliary stage" `Quick
           test_adjust_window_auxiliary_resume ]);
      ("checkpoint-files",
       [ Alcotest.test_case "write/read round-trip" `Quick test_file_roundtrip;
         Alcotest.test_case "rejects junk" `Quick test_file_errors;
         QCheck_alcotest.to_alcotest qcheck_corruption;
         Alcotest.test_case "rotation and salvage" `Quick
           test_rotation_salvage;
         Alcotest.test_case "v1 files rejected" `Quick
           test_v1_rejected;
         Alcotest.test_case "telemetry leaves checkpoints untouched" `Quick
           test_checkpoint_bytes_telemetry_invariant;
         Alcotest.test_case "golden metadata lines" `Quick
           test_golden_checkpoint_bytes ]);
      ("validation",
       [ Alcotest.test_case "mismatched snapshots rejected" `Quick
           test_resume_validation;
         Alcotest.test_case "rounds/config mismatch rejected" `Quick
           test_rounds_config_mismatch;
         Alcotest.test_case "stale state version rejected" `Quick
           test_state_version_refused ]);
      ("scenario-resume",
       [ Alcotest.test_case "markers replay rows byte-for-byte" `Quick
           test_scenario_resumable;
         Alcotest.test_case "half-finished sweep, jobs 1 -> 2" `Quick
           test_resumable_batch_jobs ]) ]
