(* CLI-level tests: fault-plan loading failures must exit 2 with a
   one-line message, and the resilience smoke run must match the
   checked-in golden summary (the same file CI diffs against). *)

let exe = Filename.concat Filename.parent_dir_name "bin/routing_sim.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the executable, capturing stdout/stderr; returns (code, out, err). *)
let run_cli args =
  let out = Filename.temp_file "eear_cli" ".out" in
  let err = Filename.temp_file "eear_cli" ".err" in
  let cmd = Filename.quote_command exe ~stdout:out ~stderr:err args in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let smoke_args =
  [ "resilience"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rate"; "0.6";
    "--rounds"; "3000"; "--drain"; "500"; "--seed"; "42"; "--fault-seed"; "7";
    "--crash-rate"; "0.002"; "--jam-rate"; "0.001"; "--restart-after"; "150";
    "--json" ]

let one_line s =
  let t = String.trim s in
  String.length t > 0 && not (String.contains t '\n')

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_missing_plan_file_exits_2 () =
  let code, _, err =
    run_cli
      [ "resilience"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "10";
        "--fault-plan"; "/nonexistent/eear-plan" ]
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) (Printf.sprintf "one-line stderr (got %S)" err) true
    (one_line err)

let test_malformed_plan_file_exits_2 () =
  let plan = Filename.temp_file "eear_plan" ".txt" in
  let oc = open_out plan in
  output_string oc "crash ten 1\n";
  close_out oc;
  let code, _, err =
    Fun.protect
      ~finally:(fun () -> Sys.remove plan)
      (fun () ->
        run_cli
          [ "resilience"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "10";
            "--fault-plan"; plan ])
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) (Printf.sprintf "one-line stderr (got %S)" err) true
    (one_line err);
  Alcotest.(check bool) "names the offending line" true (contains err "line 1")

let test_plan_station_out_of_range_exits_2 () =
  let plan = Filename.temp_file "eear_plan" ".txt" in
  let oc = open_out plan in
  output_string oc "crash 5 9\n";
  close_out oc;
  let code, _, err =
    Fun.protect
      ~finally:(fun () -> Sys.remove plan)
      (fun () ->
        run_cli
          [ "resilience"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "10";
            "--fault-plan"; plan ])
  in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) (Printf.sprintf "one-line stderr (got %S)" err) true
    (one_line err)

(* A bad generator spec — a malformed number or a station outside [0, n) —
   exits 2 with one line naming the spec, in the batch commands as in
   serve's [open]. *)
let test_bad_pattern_exits_2 () =
  List.iter
    (fun spec ->
      let code, _, err =
        run_cli
          [ "run"; "-a"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "10";
            "-p"; spec ]
      in
      Alcotest.(check int) (spec ^ " exit code") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: one stderr line naming it (got %S)" spec err)
        true
        (one_line err && contains err spec))
    [ "flood:x"; "hotspot:1:abc"; "flood:99" ]

(* [run_cli] with a deadline: a command still running after [seconds] is
   killed and reported as exit code -1, so a hang fails the test instead
   of stalling the suite. Returns (code, stderr). *)
let run_cli_within ~seconds args =
  let err = Filename.temp_file "eear_cli" ".err" in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null fd
  in
  Unix.close null;
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      -1
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  let code = wait () in
  let stderr = read_file err in
  Sys.remove err;
  (code, stderr)

(* Run specs the registry refuses — one station, a cap of 0, negative
   rounds or drain, a rate or burst out of range or too fine for the
   token arithmetic — exit 2 with one stderr line naming the field, in
   run, resilience and inspect alike, before anything is simulated: one
   Count-Hop station never finishes a round, hence the deadline. *)
let test_bad_run_spec_exits_2 () =
  List.iter
    (fun (args, field) ->
      let code, err = run_cli_within ~seconds:20.0 args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ " exit code") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: one stderr line naming %s (got %S)" what field err)
        true
        (one_line err && contains err (Printf.sprintf "%S" field)))
    [ ([ "run"; "-n"; "0" ], "n");
      ([ "run"; "-a"; "pair-tdma"; "-n"; "1" ], "n");
      ([ "inspect"; "-a"; "pair-tdma"; "-n"; "1" ], "n");
      ([ "run"; "-a"; "pair-tdma"; "-n"; "1"; "-p"; "round-robin" ], "n");
      ([ "run"; "-a"; "rrw"; "-n"; "1"; "-k"; "1"; "-p"; "flood:0" ], "n");
      ([ "run"; "-a"; "rrw"; "-n"; "1"; "-k"; "1"; "-p"; "to-busiest" ], "n");
      ([ "run"; "-a"; "count-hop"; "-n"; "1"; "-p"; "round-robin" ], "n");
      ( [ "run"; "-a"; "count-hop"; "-n"; "1"; "-k"; "1"; "-p"; "round-robin" ],
        "n" );
      ([ "resilience"; "count-hop"; "-n"; "1"; "-p"; "round-robin" ], "n");
      ([ "run"; "--rounds=-5" ], "rounds");
      ([ "run"; "--drain=-3" ], "drain");
      ([ "run"; "-k"; "0" ], "k");
      ([ "run"; "--rate"; "2"; "--rounds"; "10" ], "rate");
      ([ "run"; "--burst"; "1/2"; "--rounds"; "10" ], "burst");
      ( [ "run"; "--rate"; "1/4611686018427387903"; "--burst";
          "4611686018427387902/4611686018427387901"; "--rounds"; "10" ],
        "burst" ) ]

(* Flag values that would make a command vacuous, crash it or spin it
   are refused before anything runs, with one stderr line naming the
   flag: a negative verify count, a rounds cap that runs no rounds, a
   refresh period that redraws in a busy loop (hence the deadline), a
   negative trace tail or checkpoint period, and a timeline with no
   rounds or no columns. *)
let test_bad_flag_exits_2 () =
  List.iter
    (fun (args, message) ->
      let code, err = run_cli_within ~seconds:10.0 args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ " exit code") 2 code;
      Alcotest.(check string) (what ^ " stderr") (message ^ "\n") err)
    [ ([ "verify"; "--count=-1" ], "--count must be >= 0 (got -1)");
      ([ "verify"; "--sparse"; "--count=-1" ], "--count must be >= 0 (got -1)");
      ( [ "verify"; "--table1"; "--quick"; "--rounds-cap=-5" ],
        "--rounds-cap must be >= 1 (got -5)" );
      ( [ "verify"; "--table1"; "--quick"; "--rounds-cap"; "0" ],
        "--rounds-cap must be >= 1 (got 0)" );
      ([ "top"; "--watch"; "0"; "." ], "--watch must be > 0 (got 0)");
      ([ "top"; "--watch=-1"; "." ], "--watch must be > 0 (got -1)");
      ([ "run"; "--trace=-1" ], "--trace must be >= 0 (got -1)");
      ( [ "table1"; "T1.orchestra"; "--quick"; "--trace=-3" ],
        "--trace must be >= 0 (got -3)" );
      ( [ "figures"; "A3.allocation"; "--quick"; "--trace=-3" ],
        "--trace must be >= 0 (got -3)" );
      ([ "matrix"; "--quick"; "--trace=-3" ], "--trace must be >= 0 (got -3)");
      ( [ "resilience"; "--quick"; "--trace=-3" ],
        "--trace must be >= 0 (got -3)" );
      ( [ "run"; "--checkpoint-every=-5" ],
        "--checkpoint-every must be >= 0 (got -5)" );
      ([ "inspect"; "--last"; "0" ], "--last must be >= 1 (got 0)");
      ([ "inspect"; "--last=-1" ], "--last must be >= 1 (got -1)");
      ([ "inspect"; "--width"; "0" ], "--width must be >= 1 (got 0)");
      ([ "inspect"; "--width=-3" ], "--width must be >= 1 (got -3)") ]

(* --progress must leave stdout byte-identical (stderr is its only
   channel), so piping the summary stays safe with a progress line on. *)
let progress_base_args =
  [ "run"; "-a"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rate"; "0.6";
    "--rounds"; "2000"; "--seed"; "11" ]

let test_progress_keeps_stdout_pure () =
  let code_plain, out_plain, _ = run_cli progress_base_args in
  let code_prog, out_prog, err_prog =
    run_cli (progress_base_args @ [ "--progress"; "--telemetry-every"; "500" ])
  in
  Alcotest.(check int) "plain exit" 0 code_plain;
  Alcotest.(check int) "progress exit" 0 code_prog;
  Alcotest.(check string) "stdout byte-identical" out_plain out_prog;
  Alcotest.(check bool) "progress line went to stderr" true
    (contains err_prog "round" && contains err_prog "rounds/s")

(* Remove [path] and, for a directory, everything under it; a symlink is
   removed, never followed. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* [with_temp_dir prefix f] runs [f] on a fresh directory under the
   system temp dir and removes the directory tree afterwards, whether [f]
   returns or raises. The removal is best effort, so that it never masks
   the failure of [f]. The test_cli stanza does not link [Helpers]. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f dir)

let test_top_check_on_live_file () =
  with_temp_dir "eear_top" (fun dir ->
      let prom = Filename.concat dir "run.prom" in
      let code_run, _, err_run =
        run_cli
          (progress_base_args @ [ "--telemetry-file"; prom; "--telemetry-every"; "500" ])
      in
      Alcotest.(check int) (Printf.sprintf "run exit (stderr %S)" err_run) 0 code_run;
      Alcotest.(check bool) "exposition written" true (Sys.file_exists prom);
      let code_top, out_top, err_top = run_cli [ "top"; prom; "--once"; "--check" ] in
      Alcotest.(check int) (Printf.sprintf "top exit (stderr %S)" err_top) 0 code_top;
      Alcotest.(check bool) "renders the scenario row" true (contains out_top "run");
      Alcotest.(check bool) "shows progress" true (contains out_top "rounds/s"))

let test_top_check_fails_without_rows () =
  with_temp_dir "eear_top_empty" (fun dir ->
      let code, _, _ = run_cli [ "top"; dir; "--once"; "--check" ] in
      Alcotest.(check int) "no live rows is a check failure" 1 code)

(* --keep-going with an injected always-failing scenario: the sweep
   completes, the surviving rows are byte-identical to a clean run, the
   failure is reported with its attempt count, and the exit code is the
   documented degraded-completion 3. *)
let table1_base = [ "table1"; "T1.orchestra"; "--quick"; "--jobs"; "1" ]

let lines s = String.split_on_char '\n' s

let test_keep_going_degraded_exit_3 () =
  let bad = "orchestra/uniform" in
  let code_clean, out_clean, _ = run_cli table1_base in
  Alcotest.(check int) "clean exit" 0 code_clean;
  let code, out, err =
    run_cli
      (table1_base
      @ [ "--keep-going"; "--retries"; "1"; "--inject-failure"; bad ])
  in
  Alcotest.(check int) "degraded completion exits 3" 3 code;
  let surviving s = List.filter (fun l -> not (contains l bad)) (lines s) in
  Alcotest.(check (list string)) "surviving rows byte-identical"
    (surviving out_clean) (surviving out);
  Alcotest.(check bool) "failed row is marked" true (contains out "FAILED");
  Alcotest.(check bool) "failure reported with attempt count" true
    (contains err "after 2 attempts");
  Alcotest.(check bool) "stderr names the scenario" true (contains err bad)

(* Regression for the quarantine marker: run A fails a cell and writes a
   marker into the resume dir; run B — a NEW process — must honor it and
   refuse to re-run the cell. Before the fix, [quarantine_lookup] read the
   marker's lines as a tuple of [input_line]s (evaluated right-to-left),
   never matched the magic line, and a restarted sweep would silently
   re-run the quarantined cell. *)
let test_quarantine_survives_process_restart () =
  with_temp_dir "eear_quar_cli" (fun dir ->
      let bad = "orchestra/uniform" in
      let base = table1_base @ [ "--resume-dir"; dir; "--keep-going" ] in
      let code_a, out_a, err_a =
        run_cli (base @ [ "--inject-failure"; bad ])
      in
      Alcotest.(check int)
        (Printf.sprintf "run A degraded exit (stderr %S)" err_a)
        3 code_a;
      Alcotest.(check bool) "run A marks the failure" true (contains out_a "FAILED");
      Alcotest.(check bool) "marker file written" true
        (Sys.file_exists (Filename.concat dir "orchestra_uniform.quarantined"));
      let code_b, out_b, err_b = run_cli base in
      Alcotest.(check int)
        (Printf.sprintf "run B still degraded (stderr %S)" err_b)
        3 code_b;
      Alcotest.(check bool) "run B honors the marker" true
        (contains out_b "quarantined after 1 failure");
      Alcotest.(check bool) "other cells resumed from cache" true
        (contains out_b "(resumed)");
      let bad_lines = List.filter (fun l -> contains l bad) (lines out_b) in
      Alcotest.(check bool) "quarantined cell never re-ran" true
        (bad_lines <> []
        && List.for_all (fun l -> not (contains l "PASS")) bad_lines);
      (* run C, without --keep-going: the marker stops the sweep with the
         degraded-completion code and a line naming the cell, not an uncaught
         exception *)
      let code_c, _, err_c = run_cli (table1_base @ [ "--resume-dir"; dir ]) in
      Alcotest.(check int)
        (Printf.sprintf "run C exits 3 (stderr %S)" err_c)
        3 code_c;
      Alcotest.(check bool) "run C names the cell and the way out" true
        (List.exists
           (fun l ->
             contains l bad && contains l "quarantined" && contains l "--keep-going")
           (lines err_c)))

(* SIGTERM drains a sweep run without supervision flags: the cell in
   flight finishes, the unstarted ones print as SKIPPED, the partial
   --json is still written, and the exit code is 4. The signal goes out
   as soon as the first cell's completion marker lands. *)
let test_sigterm_drains_unflagged_sweep () =
  with_temp_dir "eear_drain" (fun dir ->
      let json = Filename.concat dir "rows.json" in
      let out = Filename.temp_file "eear_cli" ".out" in
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let args = table1_base @ [ "--resume-dir"; dir; "--json"; json ] in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
      in
      Unix.close fd;
      let first = Filename.concat dir "orchestra_flood.done" in
      let deadline = Unix.gettimeofday () +. 60.0 in
      while (not (Sys.file_exists first)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.002
      done;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      let stdout = read_file out in
      Sys.remove out;
      Alcotest.(check bool)
        (Printf.sprintf "drained exit 4 (output %S)" stdout)
        true (status = Unix.WEXITED 4);
      Alcotest.(check bool) "unstarted cells print as SKIPPED" true
        (contains stdout "SKIPPED  (drain)");
      let rows =
        List.length
          (List.filter (fun l -> contains l "\"experiment\"") (lines (read_file json)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "partial JSON (%d of 4 rows)" rows)
        true
        (rows > 0 && rows < 4))

(* Scraped files can vanish or be mid-creation between the directory
   scan and the read; top must skip them, not fail. *)
let test_top_tolerates_vanished_and_fresh_files () =
  let code, out, _ =
    run_cli [ "top"; "/nonexistent/eear.prom"; "--once" ]
  in
  Alcotest.(check int) "vanished file tolerated" 0 code;
  Alcotest.(check bool) "no error line for a vanished file" false
    (contains out "\n! ");
  (* a live exposition next to a zero-byte one a writer just created *)
  with_temp_dir "eear_top_mixed" (fun dir ->
      let prom = Filename.concat dir "run.prom" in
      let code_run, _, _ =
        run_cli
          (progress_base_args @ [ "--telemetry-file"; prom; "--telemetry-every"; "500" ])
      in
      Alcotest.(check int) "run exit" 0 code_run;
      let oc = open_out (Filename.concat dir "fresh.prom") in
      close_out oc;
      let code_top, out_top, _ = run_cli [ "top"; dir; "--once"; "--check" ] in
      Alcotest.(check int) "check passes despite the empty file" 0 code_top;
      Alcotest.(check bool) "live row still rendered" true
        (contains out_top "rounds/s"))

(* Seed 2 draws both a failing job and a stalled one, so the supervised
   axis is exercised, not just counted. *)
let test_chaos_smoke () =
  let code, out, err = run_cli [ "chaos"; "--count"; "2"; "--seed"; "2" ] in
  Alcotest.(check int) (Printf.sprintf "chaos exit (stderr %S)" err) 0 code;
  Alcotest.(check bool) "reports the config count" true
    (contains out "2 configs");
  Alcotest.(check bool) "reports zero failures" true
    (contains out "0 failures");
  let failed, timeouts =
    Scanf.sscanf out "%_d configs, %_d supervised jobs (%d failed attempts, %d"
      (fun f t -> (f, t))
  in
  Alcotest.(check bool)
    (Printf.sprintf "failed attempts and timeouts drawn (got %S)" out)
    true
    (failed > 0 && timeouts > 0)

let test_smoke_matches_golden () =
  let code, out, err = run_cli smoke_args in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" err) 0 code;
  let golden = String.trim (read_file "golden/resilience_smoke.json") in
  Alcotest.(check string) "summary JSON matches golden" golden (String.trim out)

let replace ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i + n <= String.length s && String.sub s i n = sub then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else if i < String.length s then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Runs pinned in a golden streams file: each line's command must
   reproduce its stdout and its --events stream byte for byte (compared
   by MD5). The stdout digest reads the events file's path as FILE, since
   [run] names the file it wrote. *)
let check_streams_golden ~golden ~command ~seed =
  let md5 s = Digest.to_hex (Digest.string s) in
  read_file golden
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | label :: json_md5 :: events_md5 :: args ->
           let file = Filename.temp_file "eear_streams" ".jsonl" in
           let (code, out, err), events =
             Fun.protect
               ~finally:(fun () -> Sys.remove file)
               (fun () ->
                 let result =
                   run_cli
                     ((command :: args)
                     @ [ "--seed"; seed; "--json"; "--events"; file ])
                 in
                 (result, read_file file))
           in
           Alcotest.(check int)
             (Printf.sprintf "%s exit code (stderr %S)" label err) 0 code;
           Alcotest.(check string) (label ^ ": stdout digest") json_md5
             (md5 (replace ~sub:file ~by:"FILE" out));
           Alcotest.(check string) (label ^ ": events digest") events_md5
             (md5 events)
         | _ -> Alcotest.failf "%s: malformed line %S" golden line)

(* Faulted runs: crashes with restarts strand packets, so these runs take
   the algorithms' queue shortcuts through stranded returns. *)
let test_fault_streams_match_golden () =
  check_streams_golden ~golden:"golden/fault_streams.txt"
    ~command:"resilience" ~seed:"42"

(* Unfaulted runs: the event encoder's bytes over whole journals. *)
let test_event_streams_match_golden () =
  check_streams_golden ~golden:"golden/event_streams.txt" ~command:"run"
    ~seed:"1"

(* A verify seed names the same configuration in every version: the
   random draws and the Table-1 catalog print these exact counts. *)
let test_verify_counts_pinned () =
  List.iter
    (fun (args, expected) ->
      let code, out, err = run_cli ("verify" :: args) in
      let what = String.concat " " args in
      Alcotest.(check int) (Printf.sprintf "%s exit code (stderr %S)" what err)
        0 code;
      Alcotest.(check string) what (expected ^ "\n") out)
    [ ( [ "--count"; "40"; "--seed"; "0"; "--jobs"; "1" ],
        "40 configuration(s), 155416 event(s) compared, 0 divergence(s)" );
      ( [ "--table1"; "--quick"; "--rounds-cap"; "2000"; "--jobs"; "2" ],
        "26 configuration(s), 297254 event(s) compared, 0 divergence(s)" );
      ( [ "--count"; "0" ],
        "0 configuration(s), 0 event(s) compared, 0 divergence(s)" );
      ( [ "--sparse"; "--count"; "20"; "--seed"; "0"; "--jobs"; "1" ],
        "20 sparse certification(s), 0 divergence(s)" );
      ( [ "--sparse"; "--table1"; "--quick"; "--jobs"; "2" ],
        "13 sparse certification(s), 0 divergence(s)" ) ]

(* [run --trace N] prints the last N notable channel events, recorded by
   a trace ring on the run's sink tee. The tail and the digest of the
   [--json] output are pinned, so rewiring the ring cannot change what the
   command prints. *)
let trace_args =
  [ "run"; "-a"; "orchestra"; "-n"; "5"; "-k"; "3"; "--rate"; "1"; "-p";
    "flood:2"; "--rounds"; "200"; "--trace"; "5" ]

let test_run_trace_tail () =
  let code, out, err = run_cli trace_args in
  Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" err) 0 code;
  let tail =
    String.concat "\n"
      [ "--- last 5 channel events ---";
        "r197      deliver #169 2->1 (delay 30, hop 1)";
        "r198      inject #200 2->0";
        "r198      deliver #170 2->3 (delay 30, hop 1)";
        "r199      inject #201 2->1";
        "r199      deliver #171 2->4 (delay 30, hop 1)" ]
    ^ "\n"
  in
  let n = String.length out and t = String.length tail in
  Alcotest.(check string) "stdout ends with the last five events" tail
    (if n >= t then String.sub out (n - t) t else out);
  let code, out, _ = run_cli (trace_args @ [ "--json" ]) in
  Alcotest.(check int) "--json exit code" 0 code;
  Alcotest.(check string) "--json stdout digest"
    "d2b61054e0a433008bcb36fde824b6ac"
    (Digest.to_hex (Digest.string out))

(* A directory given as an input opens without error and fails at the
   first read. Every reader turns that into one exit-2 line naming the
   path, never an uncaught exception. [fleet replay] loads its trace
   before it connects, so it needs no daemon. *)
let count_hop_args =
  [ "-a"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "100" ]

let test_directory_inputs_exit_2 () =
  with_temp_dir "eear_input_dir" (fun dir ->
      List.iter
        (fun args ->
          let code, _, err = run_cli args in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ " exit code") 2 code;
          Alcotest.(check bool)
            (Printf.sprintf "%s: one stderr line naming the path (got %S)" what err)
            true
            (one_line err && contains err (dir ^ ": ")
            && not (contains err "internal error")))
        [ ("run" :: count_hop_args) @ [ "--inject"; dir ];
          ("run" :: count_hop_args) @ [ "--resume"; dir ];
          [ "inspect"; "--file"; dir ];
          [ "fleet"; "--socket"; "/nonexistent/eear.sock"; "replay"; "c1"; dir ];
          [ "resilience"; "count-hop"; "-n"; "6"; "-k"; "2"; "--rounds"; "100";
            "--fault-plan"; dir ] ])

(* An output path that can never be written — a directory, or a file in a
   missing directory — is refused before anything runs: no scenario line,
   no checkpoint rotated over the user's directory. *)
let test_output_paths_checked_up_front () =
  with_temp_dir "eear_output_dir" (fun dir ->
      let expect_exit_2 args =
        let code, out, err = run_cli args in
        let what = String.concat " " args in
        Alcotest.(check int) (Printf.sprintf "%s exit code (stderr %S)" what err)
          2 code;
        Alcotest.(check bool)
          (Printf.sprintf "%s: one stderr line, no internal error (got %S)" what err)
          true
          (one_line err && not (contains err "internal error"));
        out
      in
      let out = expect_exit_2 [ "table1"; "T1.orchestra"; "--quick"; "--json"; dir ] in
      Alcotest.(check bool)
        (Printf.sprintf "no scenario line printed (got %S)" out)
        false (contains out "orchestra/");
      ignore
        (expect_exit_2
           (("run" :: count_hop_args)
           @ [ "--checkpoint"; dir; "--checkpoint-every"; "10" ]));
      Alcotest.(check bool) "the directory is left alone" true
        (Sys.is_directory dir);
      Alcotest.(check bool) "nothing rotated beside it" false
        (Sys.file_exists (dir ^ ".prev"));
      ignore (expect_exit_2 (("run" :: count_hop_args) @ [ "--csv"; dir ]));
      ignore
        (expect_exit_2
           (("run" :: count_hop_args)
           @ [ "--telemetry-file"; Filename.concat dir "missing/x.prom" ]));
      (* An unknown figure id is refused before the batch starts, so neither
         of its output directories is created. *)
      let events = Filename.concat dir "events"
      and telemetry = Filename.concat dir "telemetry" in
      ignore
        (expect_exit_2
           [ "figures"; "NOPE"; "--quick"; "--events"; events; "--telemetry-dir";
             telemetry ]);
      Alcotest.(check (list bool)) "no output directory created" [ false; false ]
        (List.map Sys.file_exists [ events; telemetry ]);
      (* A --telemetry-dir naming a regular file is refused the same way. *)
      let file = Filename.concat dir "file" in
      close_out (open_out file);
      List.iter
        (fun args ->
          let out =
            expect_exit_2
              (args @ [ "--quick"; "--jobs"; "1"; "--telemetry-dir"; file ])
          in
          Alcotest.(check string) "nothing printed" "" out)
        [ [ "table1"; "T1.orchestra" ]; [ "figures"; "A3.allocation" ] ])

(* A directory where a cell's completion marker goes could never be
   replaced by the marker, so the cell is refused before it runs, with a
   line naming the path: exit 2 by default; under --keep-going one FAILED
   row and exit 3. *)
let test_directory_at_marker_path () =
  with_temp_dir "eear_marker_dir" (fun dir ->
      let marker = Filename.concat dir "orchestra_flood.done" in
      Sys.mkdir marker 0o755;
      let named = marker ^ ": Is a directory" in
      let code, out, err = run_cli (table1_base @ [ "--resume-dir"; dir ]) in
      Alcotest.(check int) (Printf.sprintf "exit code (stderr %S)" err) 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "stderr ends with a line naming the path (got %S)" err)
        true
        (String.ends_with ~suffix:(named ^ "\n") err);
      Alcotest.(check bool) "no row for the cell" false
        (contains out "orchestra/flood");
      let code, out, err =
        run_cli (table1_base @ [ "--resume-dir"; dir; "--keep-going" ])
      in
      Alcotest.(check int)
        (Printf.sprintf "--keep-going exit code (stderr %S)" err)
        3 code;
      Alcotest.(check (list bool)) "one FAILED row, for the cell, naming the path"
        [ true ]
        (List.filter_map
           (fun l ->
             if contains l "FAILED" then
               Some (contains l "orchestra/flood" && contains l named)
             else None)
           (lines out));
      Alcotest.(check bool) "the directory is left alone" true
        (Sys.is_directory marker))

(* Batch commands whose stdout, concatenated over [commands], is pinned
   byte for byte in [golden]. *)
let check_stdout_golden ~golden commands =
  let out =
    String.concat ""
      (List.map
         (fun args ->
           let code, out, err = run_cli args in
           Alcotest.(check int)
             (Printf.sprintf "%s exit code (stderr %S)" (String.concat " " args)
                err)
             0 code;
           out)
         commands)
  in
  Alcotest.(check string) (golden ^ " matches") (read_file golden) out

let test_ablations_match_golden () =
  check_stdout_golden ~golden:"golden/ablations_quick.txt"
    (List.map
       (fun id -> [ "figures"; id; "--quick"; "--jobs"; "2" ])
       [ "A1.delta"; "A2.big-threshold"; "A3.allocation" ])

(* The resilience suite runs as a figure without its header. *)
let test_resilience_suite_matches_golden () =
  check_stdout_golden ~golden:"golden/resilience_quick.txt"
    [ [ "resilience"; "--quick"; "--jobs"; "2" ] ]

(* F5 and the matrix thresholds share one supervised frontier search. *)
let test_frontiers_match_golden () =
  check_stdout_golden ~golden:"golden/baselines_quick.txt"
    [ [ "figures"; "F5.baselines"; "--quick"; "--jobs"; "2" ] ];
  check_stdout_golden ~golden:"golden/matrix_thresholds_quick.txt"
    [ [ "matrix"; "--quick"; "--thresholds"; "--jobs"; "2" ] ]

let () =
  Alcotest.run "cli"
    [ ("fault-plan errors",
       [ Alcotest.test_case "missing file" `Quick test_missing_plan_file_exits_2;
         Alcotest.test_case "malformed file" `Quick
           test_malformed_plan_file_exits_2;
         Alcotest.test_case "station out of range" `Quick
           test_plan_station_out_of_range_exits_2 ]);
      ("path errors",
       [ Alcotest.test_case "directory inputs exit 2" `Quick
           test_directory_inputs_exit_2;
         Alcotest.test_case "output paths checked up front" `Quick
           test_output_paths_checked_up_front;
         Alcotest.test_case "directory at a marker path" `Quick
           test_directory_at_marker_path ]);
      ("pattern errors",
       [ Alcotest.test_case "bad spec exits 2" `Quick test_bad_pattern_exits_2 ]);
      ("run spec errors",
       [ Alcotest.test_case "bad spec exits 2" `Quick
           test_bad_run_spec_exits_2 ]);
      ("flag errors",
       [ Alcotest.test_case "bad value exits 2" `Quick test_bad_flag_exits_2 ]);
      ("telemetry",
       [ Alcotest.test_case "progress keeps stdout pure" `Quick
           test_progress_keeps_stdout_pure;
         Alcotest.test_case "top --check on a live file" `Quick
           test_top_check_on_live_file;
         Alcotest.test_case "top --check without rows" `Quick
           test_top_check_fails_without_rows;
         Alcotest.test_case "top tolerates vanished/fresh files" `Quick
           test_top_tolerates_vanished_and_fresh_files ]);
      ("supervision",
       [ Alcotest.test_case "quarantine survives restart" `Quick
           test_quarantine_survives_process_restart;
         Alcotest.test_case "keep-going degraded exit 3" `Quick
           test_keep_going_degraded_exit_3;
         Alcotest.test_case "SIGTERM drains an unflagged sweep" `Quick
           test_sigterm_drains_unflagged_sweep;
         Alcotest.test_case "chaos smoke" `Quick test_chaos_smoke ]);
      ("golden",
       [ Alcotest.test_case "resilience smoke" `Quick test_smoke_matches_golden;
         Alcotest.test_case "run --trace tail" `Quick test_run_trace_tail;
         Alcotest.test_case "fault streams" `Quick
           test_fault_streams_match_golden;
         Alcotest.test_case "event streams" `Quick
           test_event_streams_match_golden;
         Alcotest.test_case "ablation figures" `Quick
           test_ablations_match_golden;
         Alcotest.test_case "resilience suite" `Quick
           test_resilience_suite_matches_golden;
         Alcotest.test_case "stability frontiers" `Quick
           test_frontiers_match_golden;
         Alcotest.test_case "verify counts" `Quick
           test_verify_counts_pinned ]) ]
