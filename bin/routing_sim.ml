(* Command-line driver for the simulator.

   routing_sim run --algorithm k-cycle -n 12 -k 4 --rate 0.2 --pattern flood:5
   routing_sim table1 [ID]       re-run Table-1 experiments
   routing_sim figures [ID]      re-run figure sweeps
   routing_sim resilience [ALGO] fault-injection suite, or one faulted run
   routing_sim inspect           render a station-by-round ASCII timeline
   routing_sim list              show algorithms, patterns, experiments *)

open Cmdliner

(* Rates parse as exact rationals: "1/10", "0.1" and "1" all mean exactly
   one tenth / one — never a float neighbour of it. *)
let qrat_conv =
  let parse s =
    match Mac_channel.Qrat.of_string s with
    | Ok q -> Ok q
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"RATIONAL" (parse, Mac_channel.Qrat.pp)

module Registry = Mac_experiments.Registry

(* A bad field of the run spec exits 2 with the registry's one line, which
   names it. *)
let or_exit2 = function
  | Ok x -> x
  | Error msg ->
    prerr_endline msg;
    exit 2

(* The spec's bounds and (n, k) checks, then its algorithm. *)
let resolve_algorithm (spec : Registry.spec) =
  or_exit2
    (Result.bind (Registry.check spec) (fun () ->
         Registry.algorithm spec.algorithm ~n:spec.n ~k:spec.k))

(* The spec's pattern maker. The saboteurs need the algorithm's schedule,
   so resolution happens after the algorithm is known (their search runs
   here, once); every other spec goes to the registry. *)
let resolve_pattern (spec : Registry.spec) ~algorithm =
  let n = spec.n in
  let saboteur make =
    match Mac_experiments.Scenario.schedule_of algorithm ~n ~k:spec.k with
    | None ->
      Printf.eprintf "\"pattern\": %S needs an oblivious algorithm\n"
        spec.pattern;
      exit 2
    | Some schedule ->
      let choice = make ~schedule in
      Printf.printf "saboteur choice: %s\n" choice.Mac_adversary.Saboteur.description;
      choice.Mac_adversary.Saboteur.pattern
  in
  match spec.pattern with
  | "min-duty" ->
    saboteur (fun ~schedule -> Mac_adversary.Saboteur.min_duty ~n ~horizon:50_000 ~schedule)
  | "min-pair" ->
    saboteur (fun ~schedule -> Mac_adversary.Saboteur.min_pair ~n ~horizon:50_000 ~schedule)
  | "cap2" -> (Mac_adversary.Saboteur.cap2_breaker ~n).Mac_adversary.Saboteur.pattern
  | other -> or_exit2 (Registry.pattern other ~n ~seed:spec.seed)

(* ---- supervised execution (shared by run and the batch commands) ---- *)

(* First SIGTERM/SIGINT asks the supervisor to drain: in-flight work
   finishes (recording its completion markers / checkpoints), queued work
   is skipped, and the command exits 4. A second signal aborts on the
   spot. *)
let install_drain_handlers () =
  let fired = ref false in
  let handle name _signal =
    if !fired then exit 130
    else begin
      fired := true;
      Mac_sim.Supervisor.request_drain ();
      Printf.eprintf
        "\n%s: draining — in-flight work finishes, the rest is skipped \
         (repeat to abort)\n%!"
        name
    end
  in
  List.iter
    (fun (s, name) ->
      try Sys.set_signal s (Sys.Signal_handle (handle name))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigterm, "SIGTERM"); (Sys.sigint, "SIGINT") ]

(* Refuse an integer flag below [min] with one line naming it, before
   anything runs. *)
let at_least ~min flag v =
  if v < min then begin
    Printf.eprintf "%s must be >= %d (got %d)\n" flag min v;
    exit 2
  end

let policy_of ~retries ~job_timeout ~keep_going =
  at_least ~min:0 "--retries" retries;
  if job_timeout < 0.0 then begin
    Printf.eprintf "--job-timeout must be >= 0 (got %g)\n" job_timeout;
    exit 2
  end;
  { Mac_sim.Supervisor.default_policy with retries; job_timeout; keep_going }

let print_supervisor_event ev =
  Format.eprintf "supervisor: %a@." Mac_sim.Supervisor.pp_event ev

(* The flags every batch command (table1, matrix, figures, resilience)
   takes, parsed by [batch_term] and started by [batch_start]. *)
type batch = {
  quick : bool;
  jobs : int;
  trace_n : int;
  events_dir : string option;
  telemetry_dir : string option;
  telemetry_every : int;
  retries : int;
  job_timeout : float;
  keep_going : bool;
}

(* Exit discipline of the batch commands: a drain request wins (exit 4),
   otherwise persistent failures mean degraded completion (exit 3).
   Called after all reports and output files are written, so a degraded
   or drained sweep still delivers every successful result. *)
let finish_supervised b failures =
  Option.iter (Printf.printf "event streams under %s/\n") b.events_dir;
  Option.iter (Printf.printf "telemetry under %s/\n") b.telemetry_dir;
  let failed, skipped =
    List.partition
      (fun (_, e) ->
        match e with Mac_sim.Supervisor.Skipped -> false | _ -> true)
      failures
  in
  if skipped <> [] then
    Printf.eprintf "%d job(s) skipped by the drain request\n"
      (List.length skipped);
  if failed <> [] then begin
    Printf.eprintf "%d job(s) failed:\n" (List.length failed);
    List.iter
      (fun (label, err) ->
        Printf.eprintf "  %-28s %s\n" label
          (Mac_sim.Supervisor.error_to_string err))
      failed
  end;
  if Mac_sim.Supervisor.drain_requested () then exit 4
  else if failed <> [] then begin
    Printf.eprintf "completed with failures (exit 3)\n";
    exit 3
  end

(* ---- run command ---- *)

(* [Sink.jsonl_file] opens eagerly; turn an unwritable path into a CLI
   error instead of an uncaught exception. *)
let jsonl_sink path =
  try Mac_sim.Sink.jsonl_file path
  with Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

(* Output files land at the end of a run, or, for checkpoints and
   expositions, through a tmp file beside the target that is renamed over
   it. A path that can never be written is refused before anything runs:
   a directory, or a file in a directory that does not exist. *)
let check_output_file = function
  | None -> ()
  | Some path ->
    let dir = Filename.dirname path in
    if Sys.file_exists path && Sys.is_directory path then begin
      Printf.eprintf "%s: Is a directory\n" path;
      exit 2
    end;
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "%s: directory %s does not exist\n" path dir;
      exit 2
    end

(* The progress line goes to stderr only — stdout stays machine-parseable
   (summary, --json, --series) whether or not progress is on. *)
let progress_line ~round registry =
  let module T = Mac_sim.Telemetry in
  let s = T.sample registry in
  let get name = Option.value ~default:0.0 (T.find_sample s name) in
  let target = get T.Names.rounds_target in
  let rps = get T.Names.rounds_per_second in
  let backlog = get T.Names.backlog in
  let pct =
    if target > 0.0 then 100.0 *. float_of_int round /. target else 0.0
  in
  let eta =
    if rps > 0.0 && target > float_of_int round then
      Printf.sprintf "%.0fs" ((target -. float_of_int round) /. rps)
    else "-"
  in
  Printf.eprintf
    "\rround %d/%.0f (%.1f%%)  %.0f rounds/s  backlog %.0f  ETA %s   %!"
    round target pct rps backlog eta

let run_cmd (spec : Registry.spec) paced inject series trace_n events stations
    csv json checkpoint checkpoint_every resume telemetry_file telemetry_jsonl
    telemetry_every progress engine =
  at_least ~min:1 "--telemetry-every" telemetry_every;
  at_least ~min:0 "--trace" trace_n;
  at_least ~min:0 "--checkpoint-every" checkpoint_every;
  (match (checkpoint, checkpoint_every) with
   | Some _, e when e <= 0 ->
     Printf.eprintf "--checkpoint requires --checkpoint-every N with N >= 1\n";
     exit 2
   | None, e when e > 0 ->
     Printf.eprintf "--checkpoint-every requires --checkpoint FILE\n";
     exit 2
   | _ -> ());
  List.iter check_output_file [ csv; checkpoint; telemetry_file ];
  let resume_snap =
    match resume with
    | None -> None
    | Some path -> (
      match Mac_sim.Checkpoint.read_latest ~path with
      | Ok (snap, `Current) ->
        Printf.printf "resuming %s\n" (Mac_sim.Checkpoint.describe snap);
        Some snap
      | Ok (snap, `Salvaged reason) ->
        Printf.printf "resuming %s\n" (Mac_sim.Checkpoint.describe snap);
        Printf.printf "salvaged %s: %s\n"
          (Mac_sim.Checkpoint.prev_path path)
          reason;
        Some snap
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
  in
  let algorithm = resolve_algorithm spec in
  let { Registry.n; k; rate; burst; rounds; drain; _ } = spec in
  let pattern =
    match inject with
    | None -> resolve_pattern spec ~algorithm
    | Some path -> (
      (* Replay a recorded injection trace through the same external-queue
         pattern the serve daemon uses — the serve/batch equivalence tests
         compare this run's event stream against the daemon's spool. *)
      match Mac_serve.Trace_file.load ~n ~path () with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
      | Ok items ->
        fun () -> snd (Mac_adversary.Pattern.external_queue ~initial:items ()))
  in
  let pacing =
    if paced then Mac_adversary.Adversary.Paced { burst_at = None }
    else Mac_adversary.Adversary.Greedy
  in
  let scenario =
    Mac_experiments.Scenario.spec_q ~id:spec.algorithm ~algorithm ~n ~k ~rate
      ~burst ~pattern ~pacing ~rounds ~drain ()
  in
  let trace =
    if trace_n > 0 then
      Some (Mac_channel.Trace.create ~capacity:trace_n ())
    else None
  in
  let ledger = if stations then Some (Mac_sim.Ledger.create ~n) else None in
  let sinks =
    (match trace with Some t -> [ Mac_sim.Sink.ring t ] | None -> [])
    @ (match events with
       | Some path -> [ jsonl_sink path ]
       | None -> [])
    @ (match ledger with Some l -> [ Mac_sim.Ledger.sink l ] | None -> [])
  in
  let sink =
    match sinks with
    | [] -> None
    | [ s ] -> Some s
    | ss -> Some (Mac_sim.Sink.tee ss)
  in
  let telemetry_probe, telemetry_close =
    if telemetry_file = None && telemetry_jsonl = None && not progress then
      (None, fun () -> ())
    else begin
      let registry = Mac_sim.Telemetry.create () in
      let jsonl_oc =
        Option.map
          (fun path ->
            try open_out path
            with Sys_error msg ->
              Printf.eprintf "%s\n" msg;
              exit 2)
          telemetry_jsonl
      in
      let jsonl = Option.map Mac_sim.Sink.jsonl jsonl_oc in
      let on_sample ~round reg =
        Option.iter
          (fun path ->
            Mac_sim.Telemetry.write_atomic ~path (Mac_sim.Telemetry.render reg))
          telemetry_file;
        Option.iter
          (fun (sink : Mac_sim.Sink.t) ->
            sink.emit ~round
              (Mac_channel.Event.Telemetry
                 { sample = Mac_sim.Telemetry.sample reg }))
          jsonl;
        Option.iter flush jsonl_oc;
        if progress then progress_line ~round reg
      in
      ( Some (Mac_sim.Telemetry.probe ~every:telemetry_every ~on_sample registry),
        fun () ->
          Option.iter close_out jsonl_oc;
          if progress then prerr_newline () )
    end
  in
  if checkpoint <> None then install_drain_handlers ();
  let config =
    { (Mac_experiments.Scenario.config scenario) with
      mode = engine;
      sink;
      checkpoint_every;
      on_checkpoint =
        Option.map
          (fun path snap ->
            Mac_sim.Checkpoint.write_rotated ~path snap;
            if Mac_sim.Supervisor.drain_requested () then begin
              Printf.eprintf "drained: wrote %s (%s)\n" path
                (Mac_sim.Checkpoint.describe snap);
              raise Mac_sim.Supervisor.Drained
            end)
          checkpoint;
      telemetry = telemetry_probe }
  in
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Mac_sim.Sink.close sink;
        telemetry_close ())
      (fun () ->
        Mac_experiments.Scenario.simulate ~config ?resume:resume_snap scenario)
  in
  let stability = Mac_sim.Stability.classify summary.queue_series in
  Format.printf "%a@." Mac_sim.Metrics.pp_summary summary;
  Format.printf "stability: %a@." Mac_sim.Stability.pp_report stability;
  Option.iter
    (fun t ->
      Printf.printf "--- last %d channel events ---\n" trace_n;
      List.iter
        (fun (round, event) -> Printf.printf "r%-8d %s\n" round event)
        (Mac_channel.Trace.dump t))
    trace;
  Option.iter
    (fun l ->
      print_endline "--- per-station ledger ---";
      Mac_sim.Report.print (Mac_sim.Ledger.report l))
    ledger;
  Option.iter (fun path -> Printf.printf "wrote %s\n" path) events;
  Option.iter (fun path -> Printf.printf "wrote %s\n" path) telemetry_file;
  Option.iter (fun path -> Printf.printf "wrote %s\n" path) telemetry_jsonl;
  if series then print_string (Mac_sim.Export.series_csv summary);
  Option.iter
    (fun path ->
      Mac_sim.Durable.write_string ~path
        (Mac_sim.Export.summaries_csv [ summary ]);
      Printf.printf "wrote %s\n" path)
    csv;
  if json then print_endline (Mac_sim.Export.summary_json summary);
  `Ok ()

(* The run spec's flags, shared by run, resilience and inspect: each
   command supplies its algorithm term, its --rounds default, and whether
   it takes --drain. *)
let spec_term ~algorithm ~rounds ~drain =
  let d = Registry.default in
  let qrat names ~docv ~doc default =
    Arg.(value & opt qrat_conv default & info names ~docv ~doc)
  in
  let int names ~docv ~doc default =
    Arg.(value & opt int default & info names ~docv ~doc)
  in
  let n = int [ "n" ] ~docv:"N" ~doc:"Number of stations." d.n in
  let k = int [ "k" ] ~docv:"K" ~doc:"Energy cap offered." d.k in
  let rate =
    qrat [ "rate" ] ~docv:"RHO" ~doc:"Injection rate, exact: 1/10, 0.35 or 1."
      d.rate
  in
  let burst =
    qrat [ "burst" ] ~docv:"BETA" ~doc:"Burstiness (exact rational)." d.burst
  in
  let pattern =
    Arg.(
      value
      & opt string d.pattern
      & info [ "p"; "pattern" ] ~docv:"PATTERN"
          ~doc:
            "uniform | flood:V | pair:S:D | round-robin | to-busiest | \
             hotspot:H:BIAS | alternating:S:D1:D2 | min-duty | min-pair | cap2.")
  in
  let rounds = int [ "rounds" ] ~docv:"T" ~doc:"Injection rounds." rounds in
  let drain =
    if drain then
      int [ "drain" ] ~docv:"T"
        ~doc:"Extra injection-free rounds to empty queues." d.drain
    else Term.const d.drain
  in
  let seed = Arg.(value & opt int d.seed & info [ "seed" ] ~doc:"PRNG seed.") in
  Term.(
    const (fun algorithm n k rate burst pattern rounds drain seed ->
        { Registry.algorithm; n; k; rate; burst; pattern; rounds; drain; seed })
    $ algorithm $ n $ k $ rate $ burst $ pattern $ rounds $ drain $ seed)

let telemetry_every_arg =
  Arg.(
    value & opt int 1000
    & info [ "telemetry-every" ] ~docv:"N"
        ~doc:"Telemetry sampling cadence in rounds (default 1000).")

let algorithm_arg =
  Arg.(
    value
    & opt string Registry.default.algorithm
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:(Printf.sprintf "One of: %s." (String.concat ", " Registry.names)))

let run_term =
  let paced =
    Arg.(value & flag & info [ "paced" ] ~doc:"Spread injections instead of greedy bursts.")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"FILE"
          ~doc:
            "Replay a recorded injection trace (one \"ROUND SRC DST\" per \
             line; # comments) instead of a generator --pattern. The leaky \
             bucket still gates admission, exactly as with live injection \
             into the serve daemon.")
  in
  let series =
    Arg.(value & flag & info [ "series" ] ~doc:"Print the queue-size series as CSV.")
  in
  let trace_n =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"N" ~doc:"Print the last N channel events.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the summary as CSV to FILE.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as JSON.")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Record the full typed event stream as JSON lines to FILE.")
  in
  let stations =
    Arg.(
      value & flag
      & info [ "stations" ]
          ~doc:"Print the per-station ledger (on-rounds, traffic, queue peaks).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a crash-safe checkpoint of the run to FILE every \
             --checkpoint-every rounds (fsync + atomic rename; the \
             previous generation is kept as FILE.prev; resume with \
             --resume FILE). With a checkpoint configured, SIGTERM/SIGINT \
             drains: the next checkpoint is written, then the run exits 4.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint period in rounds (requires --checkpoint).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by --checkpoint. The other \
             flags must describe the same run (algorithm, n, k, rate, \
             pattern, rounds, drain); mismatches are rejected, and the \
             resumed run's output is bit-identical to an uninterrupted one. \
             A corrupt FILE falls back to the FILE.prev generation \
             (reported as salvaged).")
  in
  let telemetry_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-file" ] ~docv:"FILE"
          ~doc:
            "Rewrite a Prometheus-style text exposition of the live metrics \
             registry to FILE (atomic tmp + rename, so a concurrent scraper \
             never sees a partial file) every --telemetry-every rounds.")
  in
  let telemetry_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-jsonl" ] ~docv:"FILE"
          ~doc:"Append each telemetry sample as one event JSON line to FILE.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a live progress line (round, throughput, backlog, ETA) to \
             stderr every --telemetry-every rounds; stdout is untouched.")
  in
  let engine =
    Arg.(
      value
      & opt
          (enum
             [ ("auto", Mac_sim.Engine.Auto);
               ("dense", Mac_sim.Engine.Dense);
               ("sparse", Mac_sim.Engine.Sparse) ])
          Mac_sim.Engine.Auto
      & info [ "engine" ] ~docv:"MODE"
          ~doc:
            "Execution mode: $(b,dense) visits every station every round; \
             $(b,sparse) uses the algorithm's closed-form schedule to touch \
             only scheduled stations and skip provably-idle stretches \
             analytically (bit-identical output; rejects algorithms without \
             the hook); $(b,auto) (default) picks sparse when available.")
  in
  Term.(
    ret
      (const run_cmd
       $ spec_term ~algorithm:algorithm_arg ~rounds:Registry.default.rounds
           ~drain:true
       $ paced $ inject $ series $ trace_n $ events
       $ stations $ csv $ json $ checkpoint $ checkpoint_every $ resume
       $ telemetry_file $ telemetry_jsonl $ telemetry_every_arg $ progress
       $ engine))

(* ---- table1 / figures commands ---- *)

(* A directory flag naming something else exits 2 before anything runs. *)
let refuse_non_dir dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then begin
    Printf.eprintf "%s exists and is not a directory\n" dir;
    exit 2
  end

let ensure_dir dir =
  refuse_non_dir dir;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Per-scenario observer for experiment drivers: an optional JSONL file
   per scenario under [events_dir], and an optional notable-event ring
   whose tail is printed when the scenario finishes. *)
let scenario_observer ~trace_n ~events_dir :
    Mac_experiments.Scenario.observer option =
  if trace_n <= 0 && events_dir = None then None
  else begin
    Option.iter ensure_dir events_dir;
    Some
      (fun ~id ->
        let sinks =
          match events_dir with
          | None -> []
          | Some dir ->
            let stem = Mac_sim.Durable.file_stem id in
            let path = Filename.concat dir (stem ^ ".jsonl") in
            [ jsonl_sink path ]
        in
        let sinks =
          if trace_n <= 0 then sinks
          else begin
            let t =
              Mac_channel.Trace.create ~capacity:trace_n ()
            in
            let ring = Mac_sim.Sink.ring t in
            Mac_sim.Sink.make
              ~close:(fun () ->
                Printf.printf "  last notable events of %s:\n" id;
                List.iter
                  (fun (round, event) ->
                    Printf.printf "    r%-8d %s\n" round event)
                  (Mac_channel.Trace.dump t))
              ring.Mac_sim.Sink.emit
            :: sinks
          end
        in
        match sinks with
        | [] -> None
        | [ s ] -> Some s
        | ss -> Some (Mac_sim.Sink.tee ss))
  end

let check_jobs jobs =
  at_least ~min:1 "--jobs" jobs;
  jobs

(* Batch drivers publish per-scenario expositions plus a fleet aggregate
   under --telemetry-dir; [routing_sim top DIR] watches those files. *)
let fleet_of ~telemetry_dir ~telemetry_every =
  at_least ~min:1 "--telemetry-every" telemetry_every;
  Option.map
    (fun dir ->
      refuse_non_dir dir;
      Mac_sim.Telemetry.Fleet.create ~dir ~every:telemetry_every ())
    telemetry_dir

(* Start a batch command: validate its flags, install the drain
   handlers, and return what every sweep takes. Unflagged runs get the
   default policy, under which the first failure aborts the sweep like a
   plain batch. *)
let batch_start b =
  let scale = if b.quick then `Quick else `Full in
  let jobs = check_jobs b.jobs in
  at_least ~min:0 "--trace" b.trace_n;
  let policy =
    policy_of ~retries:b.retries ~job_timeout:b.job_timeout
      ~keep_going:b.keep_going
  in
  let observe = scenario_observer ~trace_n:b.trace_n ~events_dir:b.events_dir in
  let telemetry =
    fleet_of ~telemetry_dir:b.telemetry_dir ~telemetry_every:b.telemetry_every
  in
  install_drain_handlers ();
  (scale, jobs, policy, observe, telemetry)

(* The dispatch shared by table1 and matrix: the selected Table-1-shaped
   rows run as one [Table1.sweep], then every cell prints one line under
   its row — [on_row] renders finished and resumed cells, failed and
   drained ones print as FAILED/SKIPPED in a [width]-wide column. [stage]
   runs after the rows (the matrix thresholds) and returns extra JSON
   rows. *)
let sweep_cmd ~width ~on_row ~stage ~json ~resume_dir ~inject batch rows =
  check_output_file json;
  let scale, jobs, policy, observe, telemetry = batch_start batch in
  Option.iter ensure_dir resume_dir;
  let inject =
    Option.map
      (fun bad cid ->
        if cid = bad then
          failwith (Printf.sprintf "injected failure in %s" cid))
      inject
  in
  let json_rows = ref [] in
  let failures = ref [] in
  let failed cid err =
    failures := (cid, err) :: !failures;
    match err with
    | Mac_sim.Supervisor.Skipped ->
      Printf.printf "%-*s SKIPPED  (drain)\n" width cid
    | err ->
      Printf.printf "%-*s FAILED   %s\n" width cid
        (Mac_sim.Supervisor.error_to_string err)
  in
  List.iter
    (fun ((e : Mac_experiments.Table1.t), outcomes) ->
      Printf.printf "--- %s ---\n%s\n" e.id e.claim;
      List.iter
        (fun (cid, outcome) ->
          match outcome with
          | Ok r ->
            if json <> None then
              json_rows :=
                Mac_experiments.Scenario.resumed_json ~experiment:e.id r
                :: !json_rows;
            on_row r
          | Error err -> failed cid err)
        outcomes)
    (Mac_experiments.Table1.sweep ?observe ?telemetry ~jobs ~policy
       ~on_event:print_supervisor_event ?inject ?resume_dir ~scale rows);
  json_rows := List.rev_append (stage ~scale ~jobs ~policy ~failed) !json_rows;
  Option.iter
    (fun path ->
      let body = "[\n" ^ String.concat ",\n" (List.rev !json_rows) ^ "\n]\n" in
      Mac_sim.Durable.write_string ~path body;
      Printf.printf "wrote %s\n" path)
    json;
  finish_supervised batch (List.rev !failures);
  `Ok ()

let resumed_suffix = function
  | Mac_experiments.Scenario.Cached _ -> "  (resumed)"
  | Mac_experiments.Scenario.Fresh _ -> ""

let table1_cmd id batch json resume_dir inject =
  let rows =
    match id with
    | None -> Mac_experiments.Table1.all
    | Some id ->
      (try [ Mac_experiments.Table1.find id ]
       with Not_found ->
         Printf.eprintf "unknown experiment %S\n" id;
         exit 2)
  in
  let on_row r =
    Printf.printf "%-28s %s %s%s\n"
      (Mac_experiments.Scenario.resumed_id r)
      (Mac_experiments.Scenario.resumed_verdict r)
      (if Mac_experiments.Scenario.resumed_passed r then "PASS" else "FAIL")
      (resumed_suffix r)
  in
  sweep_cmd ~width:28 ~on_row
    ~stage:(fun ~scale:_ ~jobs:_ ~policy:_ ~failed:_ -> [])
    ~json ~resume_dir ~inject batch rows

(* The cross-paper matrix: one Table-1-shaped row crossing every
   algorithm with every adversary and fault plan, plus an optional
   bisected stability-frontier stage. *)
let matrix_cmd batch json csv resume_dir inject thresholds only =
  check_output_file csv;
  let only =
    match only with
    | None -> fun _ -> true
    | Some id ->
      if not (Mac_experiments.Matrix.is_algo_id id) then begin
        Printf.eprintf "unknown matrix algorithm %S; available: %s\n" id
          (String.concat ", " (Mac_experiments.Matrix.algo_ids ()));
        exit 2
      end;
      fun a -> a = id
  in
  let csv_rows = ref [] in
  let tally = Hashtbl.create 8 in
  let on_row (r : Mac_experiments.Scenario.resumed) =
    let verdict = Mac_experiments.Scenario.resumed_verdict r in
    Hashtbl.replace tally verdict
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally verdict));
    if csv <> None then
      csv_rows := Mac_experiments.Matrix.csv_line r :: !csv_rows;
    Printf.printf "%-44s %-12s %s%s\n"
      (Mac_experiments.Scenario.resumed_id r)
      verdict
      (if Mac_experiments.Scenario.resumed_passed r then "ok" else "FAIL")
      (resumed_suffix r)
  in
  let stage ~scale ~jobs ~policy ~failed =
    let cells = Hashtbl.fold (fun _ c acc -> acc + c) tally 0 in
    Printf.printf "%d cell(s): %s\n" cells
      (String.concat ", "
         (List.filter_map
            (fun v ->
              Option.map
                (fun c -> Printf.sprintf "%d %s" c v)
                (Hashtbl.find_opt tally v))
            [ "stable"; "UNSTABLE"; "inconclusive" ]));
    let frontier_rows =
      if not thresholds then []
      else begin
        Printf.printf "--- stability frontiers (clean channel) ---\n";
        List.filter_map
          (fun (label, outcome) ->
            match outcome with
            | Ok f ->
              Printf.printf "%-44s %s\n" label
                (Mac_experiments.Sweep.frontier_to_string f);
              Some (Mac_experiments.Matrix.frontier_json ~label f)
            | Error err ->
              failed label err;
              None)
          (Mac_experiments.Matrix.thresholds ~jobs ~policy
             ~on_event:print_supervisor_event ~only ~scale ())
      end
    in
    Option.iter
      (fun path ->
        let body =
          Mac_experiments.Matrix.csv_header ^ "\n"
          ^ String.concat "\n" (List.rev !csv_rows)
          ^ "\n"
        in
        Mac_sim.Durable.write_string ~path body;
        Printf.printf "wrote %s\n" path)
      csv;
    frontier_rows
  in
  sweep_cmd ~width:44 ~on_row ~stage ~json ~resume_dir ~inject batch
    [ Mac_experiments.Matrix.row_for ~only ]

(* The figures as one sweep, then their tables in order; [headed] prints
   each figure's id and title above its table and a blank line below
   it. *)
let run_figures ~headed batch figures =
  let scale, jobs, policy, observe, telemetry = batch_start batch in
  let failures =
    List.concat_map
      (fun ((f : Mac_experiments.Figures.t),
            (s : Mac_experiments.Figures.supervised)) ->
        if headed then Printf.printf "--- %s ---\n%s\n" f.id f.title;
        Mac_sim.Report.print s.report;
        if headed then print_newline ();
        s.failures)
      (Mac_experiments.Figures.run ?observe ?telemetry ~jobs ~policy
         ~on_event:print_supervisor_event ~scale figures)
  in
  finish_supervised batch failures;
  `Ok ()

(* The id resolves before the batch starts, so an unknown one creates no
   directory. *)
let figures_cmd id batch =
  run_figures ~headed:true batch
    (match id with
     | None -> Mac_experiments.Figures.all
     | Some id -> (
       match
         List.find_opt (fun (f : Mac_experiments.Figures.t) -> f.id = id)
           Mac_experiments.Figures.all
       with
       | Some f -> [ f ]
       | None ->
         Printf.eprintf "unknown figure %S\n" id;
         exit 2))

(* ---- resilience command ---- *)

let load_fault_plan path =
  match Mac_faults.Fault_plan.of_file path with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let resilience_cmd algo spec batch fault_plan fault_seed crash_rate jam_rate
    noise_rate restart_after crash_drop events json =
  match algo with
  | None ->
    (* Suite mode: sweep every subject algorithm across the fault plans. *)
    run_figures ~headed:false batch [ Mac_experiments.Resilience.figure ]
  | Some algorithm_name ->
    (* Single-run mode: one algorithm under one fault plan. *)
    if batch.retries > 0 || batch.job_timeout > 0.0 || batch.keep_going then
      Printf.eprintf
        "note: --retries/--job-timeout/--keep-going apply to suite mode only\n";
    let spec = { spec with Registry.algorithm = algorithm_name } in
    let algorithm = resolve_algorithm spec in
    let { Registry.n; k; rate; burst; rounds; drain; _ } = spec in
    let plan =
      match fault_plan with
      | Some path -> load_fault_plan path
      | None -> (
        try
          Mac_faults.Fault_plan.random ~seed:fault_seed ~n ~rounds ~crash_rate
            ~jam_rate ~noise_rate ~restart_after
            ~queue:
              (if crash_drop then Mac_faults.Fault_plan.Drop
               else Mac_faults.Fault_plan.Retain)
            ()
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 2)
    in
    let plan = or_exit2 (Mac_faults.Fault_plan.for_stations ~n plan) in
    let pattern = resolve_pattern spec ~algorithm in
    let { Mac_experiments.Scenario.summary; stability; _ } =
      Mac_experiments.Scenario.run
        ~observe:(fun ~id:_ -> Option.map jsonl_sink events)
        (Mac_experiments.Scenario.spec_q ~id:algorithm_name ~algorithm ~n ~k
           ~rate ~burst ~pattern ~rounds ~drain ~faults:plan ())
    in
    if json then print_endline (Mac_sim.Export.summary_json summary)
    else begin
      Printf.printf "fault plan: %s (%d actions)\n"
        (Mac_faults.Fault_plan.name plan)
        (Mac_faults.Fault_plan.size plan);
      Format.printf "%a@." Mac_sim.Metrics.pp_summary summary;
      Format.printf "stability: %a@." Mac_sim.Stability.pp_report stability;
      Option.iter (fun path -> Printf.printf "wrote %s\n" path) events
    end;
    `Ok ()

(* ---- inspect command ---- *)

let event_stations (ev : Mac_channel.Event.t) =
  match ev with
  | Injected { src; dst; _ } -> [ src; dst ]
  | Switched_on { station } | Switched_off { station } -> [ station ]
  | Transmit { station; _ } | Heard { station; _ } | Stranded { station; _ } ->
    [ station ]
  | Collision { stations }
  | Adoption_conflict { stations }
  | Spurious_adoption { stations } ->
    stations
  | Delivered { from_; dst; _ } -> [ from_; dst ]
  | Relayed { from_; relay; dst; _ } -> [ from_; relay; dst ]
  | Station_crashed { station; _ } | Station_restarted { station } -> [ station ]
  | Silence | Cap_exceeded _ | Round_end _ | Round_jammed _ | Telemetry _ -> []

let read_events path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           if String.trim line <> "" then
             match Mac_channel.Event.of_json_line line with
             | Ok entry -> events := entry :: !events
             | Error msg ->
               Printf.eprintf "%s:%d: %s\n" path !lineno msg;
               exit 2
         done
       with
       | End_of_file -> ()
       | Sys_error msg ->
         (* A directory opens fine and fails at the first read. *)
         Printf.eprintf "%s: %s\n" path msg;
         exit 2);
      List.rev !events)

let inspect_cmd file spec last width =
  at_least ~min:1 "--last" last;
  at_least ~min:1 "--width" width;
  (match file with
   | Some path ->
     let events = read_events path in
     if events = [] then begin
       Printf.eprintf "%s: no events\n" path;
       exit 2
     end;
     let n =
       1
       + List.fold_left
           (fun acc (_, ev) -> List.fold_left max acc (event_stations ev))
           0 events
     in
     let tl = Mac_sim.Timeline.create ~rounds:last ~n () in
     List.iter (fun (round, ev) -> Mac_sim.Timeline.feed tl ~round ev) events;
     print_string (Mac_sim.Timeline.render ~width tl)
   | None ->
     let algorithm = resolve_algorithm spec in
     let { Registry.n; k; rate; burst; rounds; _ } = spec in
     let pattern = resolve_pattern spec ~algorithm in
     let tl = Mac_sim.Timeline.create ~rounds:(max last rounds) ~n () in
     let { Mac_experiments.Scenario.summary; _ } =
       Mac_experiments.Scenario.run
         ~observe:(fun ~id:_ -> Some (Mac_sim.Timeline.sink tl))
         (Mac_experiments.Scenario.spec_q ~id:spec.algorithm ~algorithm ~n ~k
            ~rate ~burst ~pattern ~rounds ~drain:0 ())
     in
     print_string (Mac_sim.Timeline.render ~width tl);
     Printf.printf
       "\n%s vs %s: %d injected, %d delivered, %d collision rounds in %d rounds\n"
       summary.algorithm summary.adversary summary.injected summary.delivered
       summary.collision_rounds summary.rounds);
  `Ok ()

let list_cmd () =
  print_endline "algorithms:";
  List.iter
    (fun name ->
      let a = or_exit2 (Registry.algorithm name ~n:8 ~k:3) in
      Printf.printf "  %-14s %s\n" name (Mac_channel.Algorithm.describe a))
    Registry.names;
  print_endline "table-1 experiments:";
  List.iter
    (fun (e : Mac_experiments.Table1.t) -> Printf.printf "  %-24s %s\n" e.id e.claim)
    Mac_experiments.Table1.all;
  print_endline "figures:";
  List.iter
    (fun (f : Mac_experiments.Figures.t) -> Printf.printf "  %-24s %s\n" f.id f.title)
    Mac_experiments.Figures.all;
  print_endline "matrix adversaries (routing_sim matrix):";
  List.iter
    (fun (a : Mac_experiments.Matrix.adversary_axis) ->
      Printf.printf "  %-14s rho=%s beta=%s\n" a.adv_id
        (Mac_channel.Qrat.to_string a.rate)
        (Mac_channel.Qrat.to_string a.burst))
    Mac_experiments.Matrix.adversaries;
  print_endline "matrix fault plans:";
  List.iter
    (fun (f : Mac_experiments.Matrix.fault_axis) ->
      Printf.printf "  %s\n" f.fault_id)
    Mac_experiments.Matrix.faults;
  `Ok ()

let id_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller, faster configurations.")

let jobs_arg =
  Arg.(
    value
    & opt int (max 1 (Domain.recommended_domain_count ()))
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the scenario pool (default: the machine's \
           recommended domain count). Results are bit-identical for every N.")

let exp_trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:"Print the last N notable channel events of every scenario.")

let exp_events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"DIR"
        ~doc:"Record each scenario's event stream as DIR/<scenario>.jsonl.")

let telemetry_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-dir" ] ~docv:"DIR"
        ~doc:
          "Publish live Prometheus-style expositions: one \
           DIR/<scenario>.prom per running scenario plus the aggregate \
           DIR/fleet.prom, each rewritten atomically every \
           --telemetry-every rounds. Watch them with routing_sim top DIR.")

let table1_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write every scenario's checks and summary as a JSON array to \
           FILE.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a failed or timed-out scenario up to N more times with \
           exponential backoff. Retries rebuild the scenario from scratch, \
           so a retried success is bit-identical to a first-attempt one.")

let job_timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "job-timeout" ] ~docv:"SECS"
        ~doc:
          "Watchdog deadline per scenario attempt: a scenario making no \
           round progress for SECS seconds is cancelled (and retried under \
           --retries). 0 disables the watchdog.")

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going" ]
        ~doc:
          "Do not abort the sweep on the first scenario failure: run \
           everything, report every failure with its attempt count, and \
           exit 3 if any remain. Successful scenarios are unaffected and \
           bit-identical to an undisturbed sweep.")

(* The flags every batch command takes, [events] its event-directory
   flag. *)
let batch_term events =
  let batch quick jobs trace_n events_dir telemetry_dir telemetry_every
      retries job_timeout keep_going =
    { quick; jobs; trace_n; events_dir; telemetry_dir; telemetry_every;
      retries; job_timeout; keep_going }
  in
  Term.(
    const batch $ quick_arg $ jobs_arg $ exp_trace_arg $ events
    $ telemetry_dir_arg $ telemetry_every_arg $ retries_arg $ job_timeout_arg
    $ keep_going_arg)

let inject_failure_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-failure" ] ~docv:"ID"
        ~doc:
          "Testing hook: raise inside scenario ID on every attempt, to \
           exercise the --retries/--keep-going failure handling.")

let table1_resume_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume-dir" ] ~docv:"DIR"
        ~doc:
          "Record a completion marker per scenario under DIR and skip \
           scenarios already marked done: restarting a killed sweep with \
           the same DIR re-runs only the unfinished scenarios, and the \
           --json output is byte-identical to an uninterrupted sweep.")

let matrix_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:
          "Write one CSV line per cell (algorithm, adversary, fault, \
           verdict, passed) to FILE. Byte-identical across --jobs values \
           and --resume-dir replays.")

let matrix_thresholds_arg =
  Arg.(
    value & flag
    & info [ "thresholds" ]
        ~doc:
          "Also bisect each (algorithm, adversary) stability frontier on a \
           clean channel with exact-rational rates and report the bracket \
           (or that the algorithm is stable/unstable across the whole probe \
           range).")

let matrix_only_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"ALGO"
        ~doc:
          "Restrict the matrix (cells and thresholds) to one algorithm id.")

let resilience_term =
  let algo =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ALGO"
          ~doc:
            "Run a single algorithm under one fault plan instead of the full \
             suite.")
  in
  let events_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-dir" ] ~docv:"DIR"
          ~doc:"Suite mode: record each cell's event stream as DIR/<cell>.jsonl.")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"FILE"
          ~doc:
            "Scripted fault plan: one directive per line (crash R S [keep|drop], \
             restart R S, jam R[..R], noise R[..R]); '#' comments.")
  in
  let fault_seed =
    Arg.(
      value & opt int 7
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:"Seed of the generated random fault plan (ignored with --fault-plan).")
  in
  let crash_rate =
    Arg.(
      value & opt float 0.0
      & info [ "crash-rate" ] ~docv:"PHI"
          ~doc:"Per-round probability that some alive station crashes.")
  in
  let jam_rate =
    Arg.(
      value & opt float 0.0
      & info [ "jam-rate" ] ~docv:"PHI"
          ~doc:"Per-round probability of a jammed round.")
  in
  let noise_rate =
    Arg.(
      value & opt float 0.0
      & info [ "noise-rate" ] ~docv:"PHI"
          ~doc:"Per-round probability of a spurious-noise round.")
  in
  let restart_after =
    Arg.(
      value & opt int 0
      & info [ "restart-after" ] ~docv:"D"
          ~doc:"Restart crashed stations D rounds later (0 = crash-stop).")
  in
  let crash_drop =
    Arg.(
      value & flag
      & info [ "crash-drop" ]
          ~doc:"Crashed stations lose their queue (default: retain it).")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Single-run mode: record the event stream as JSON lines to FILE.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Single-run mode: print only the JSON summary (for goldens).")
  in
  Term.(
    ret
      (const resilience_cmd $ algo
       $ spec_term ~algorithm:(Term.const Registry.default.algorithm)
           ~rounds:20_000 ~drain:true
       $ batch_term events_dir $ fault_plan $ fault_seed $ crash_rate
       $ jam_rate $ noise_rate $ restart_after $ crash_drop $ events $ json))

let inspect_term =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Render a recorded JSON-lines event stream (as written by run \
             --events) instead of simulating.")
  in
  let last =
    Arg.(
      value & opt int 512
      & info [ "last" ] ~docv:"N" ~doc:"Keep only the last N rounds.")
  in
  let width =
    Arg.(
      value & opt int 72
      & info [ "width" ] ~docv:"COLS" ~doc:"Round-columns per block.")
  in
  Term.(
    ret
      (const inspect_cmd $ file
       $ spec_term ~algorithm:algorithm_arg ~rounds:120 ~drain:false
       $ last $ width))

(* ---- top command ---- *)

(* A live dashboard over telemetry exposition files: one row per
   scenario file, a footer from the fleet aggregate. The writers rewrite
   atomically (tmp + rename), so each read sees a consistent snapshot. *)

type top_row = {
  top_label : string;
  top_round : float;
  top_target : float;
  top_rps : float;
  top_backlog : float;
  top_p99 : float option;
  top_energy : float;
}

(* Scraped runs come and go: a directory, a .prom file, or its content
   can vanish between the scan and the read (a finished sweep cleaning
   up, a writer that is not atomic). Everything transient is "not there
   this frame" — skipped, rescanned next frame — never an error. *)
let top_files paths =
  List.concat_map
    (fun p ->
      match Sys.is_directory p with
      | exception Sys_error _ -> [ p ]
      | false -> [ p ]
      | true -> (
        match Sys.readdir p with
        | exception Sys_error _ -> []
        | entries ->
          Array.to_list entries
          |> List.filter (fun f -> Filename.check_suffix f ".prom")
          |> List.map (Filename.concat p)
          |> List.sort compare))
    paths

let read_exposition path =
  match open_in_bin path with
  | exception Sys_error _ -> `Missing
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> `Missing
    | exception End_of_file -> `Missing (* shrank mid-read *)
    | content -> (
      match Mac_sim.Telemetry.parse_exposition content with
      | Ok triples -> `Rows triples
      | Error msg -> `Malformed (Printf.sprintf "%s: %s" path msg)))

let top_metric ?quantile triples name =
  List.find_map
    (fun (n, labels, v) ->
      if n <> name then None
      else
        match quantile with
        | None -> Some v
        | Some q ->
          if List.assoc_opt "quantile" labels = Some q then Some v else None)
    triples

let top_row_of triples path =
  let module N = Mac_sim.Telemetry.Names in
  let get name = Option.value ~default:0.0 (top_metric triples name) in
  let top_label =
    match
      List.find_map (fun (_, ls, _) -> List.assoc_opt "scenario" ls) triples
    with
    | Some id -> id
    | None -> Filename.remove_extension (Filename.basename path)
  in
  { top_label; top_round = get N.round; top_target = get N.rounds_target;
    top_rps = get N.rounds_per_second; top_backlog = get N.backlog;
    top_p99 = top_metric ~quantile:"0.99" triples N.delay;
    top_energy = get N.energy_total }

let top_fleet_line triples =
  let module N = Mac_sim.Telemetry.Names in
  let get name = Option.value ~default:0.0 (top_metric triples name) in
  let probes = get N.bisect_probes in
  Printf.sprintf "fleet: %.0f started, %.0f completed, %.0f cached%s"
    (get N.scenarios_started) (get N.scenarios_completed)
    (get N.scenarios_cached)
    (if probes > 0.0 then Printf.sprintf ", %.0f bisect probes" probes else "")

let top_render rows fleet errors =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-34s %10s %6s %9s %9s %8s %11s %7s\n" "scenario" "round"
       "%" "rounds/s" "backlog" "p99" "energy" "ETA");
  List.iter
    (fun r ->
      let pct =
        if r.top_target > 0.0 then 100.0 *. r.top_round /. r.top_target
        else 0.0
      in
      let eta =
        if r.top_target > 0.0 && r.top_round >= r.top_target then "done"
        else if r.top_rps > 0.0 then
          Printf.sprintf "%.0fs" ((r.top_target -. r.top_round) /. r.top_rps)
        else "-"
      in
      let p99 =
        match r.top_p99 with Some v -> Printf.sprintf "%.0f" v | None -> "-"
      in
      Buffer.add_string b
        (Printf.sprintf "%-34s %10.0f %5.1f%% %9.0f %9.0f %8s %11.0f %7s\n"
           r.top_label r.top_round pct r.top_rps r.top_backlog p99
           r.top_energy eta))
    rows;
  Option.iter (fun line -> Buffer.add_string b (line ^ "\n")) fleet;
  List.iter (fun msg -> Buffer.add_string b ("! " ^ msg ^ "\n")) errors;
  Buffer.contents b

let top_gather paths =
  let files = top_files paths in
  let fleet_files, scenario_files =
    List.partition (fun p -> Filename.basename p = "fleet.prom") files
  in
  let errors = ref [] in
  let parse p =
    match read_exposition p with
    | `Rows triples when triples <> [] -> Some triples
    | `Rows _ | `Missing -> None
    | `Malformed msg ->
      errors := msg :: !errors;
      None
  in
  let rows =
    List.filter_map
      (fun p -> Option.map (fun t -> top_row_of t p) (parse p))
      scenario_files
  in
  let fleet =
    match fleet_files with
    | [] -> None
    | p :: _ -> Option.map top_fleet_line (parse p)
  in
  (rows, fleet, List.rev !errors)

let top_cmd paths watch once check =
  if watch <= 0.0 then begin
    Printf.eprintf "--watch must be > 0 (got %g)\n" watch;
    exit 2
  end;
  if paths = [] then begin
    Printf.eprintf
      "top: name at least one telemetry file or directory (as written by \
       --telemetry-file / --telemetry-dir)\n";
    exit 2
  end;
  if check || once then begin
    let rows, fleet, errors = top_gather paths in
    (* A half-rewritten exposition parses clean on the next frame; give
       non-atomic writers one rescan before --check calls it corrupt. *)
    let rows, fleet, errors =
      if check && errors <> [] then begin
        Unix.sleepf 0.05;
        top_gather paths
      end
      else (rows, fleet, errors)
    in
    print_string (top_render rows fleet errors);
    if check then begin
      if errors <> [] then begin
        Printf.eprintf "top --check: malformed exposition(s)\n";
        exit 1
      end;
      let live =
        List.filter (fun r -> r.top_round > 0.0 && r.top_target > 0.0) rows
      in
      if live = [] then begin
        Printf.eprintf "top --check: no live telemetry rows\n";
        exit 1
      end
    end;
    `Ok ()
  end
  else begin
    (* Watch mode: redraw until interrupted. *)
    while true do
      let rows, fleet, errors = top_gather paths in
      print_string "\027[H\027[2J";
      print_string (top_render rows fleet errors);
      flush stdout;
      Unix.sleepf watch
    done;
    `Ok ()
  end

let top_term =
  let paths =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Telemetry exposition files (*.prom) or directories of them, as \
             written by run --telemetry-file or the batch commands' \
             --telemetry-dir.")
  in
  let watch =
    Arg.(
      value & opt float 2.0
      & info [ "watch" ] ~docv:"SECS"
          ~doc:"Refresh period of the live dashboard (default 2 seconds).")
  in
  let once =
    Arg.(
      value & flag & info [ "once" ] ~doc:"Render one snapshot and exit.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Render once and exit non-zero unless every exposition parses \
             and at least one scenario row carries live telemetry — for \
             smoke tests.")
  in
  Term.(ret (const top_cmd $ paths $ watch $ once $ check))

(* ---- chaos command ---- *)

let chaos_cmd count seed dir verbose =
  at_least ~min:1 "--count" count;
  let log = if verbose then Some prerr_endline else None in
  let st = Mac_verify.Chaos.run ?log ?dir ~count ~seed () in
  Format.printf "%a@." Mac_verify.Chaos.pp_stats st;
  if not (Mac_verify.Chaos.passed st) then begin
    List.iter
      (fun msg -> Printf.eprintf "FAIL %s\n" msg)
      st.Mac_verify.Chaos.failures;
    exit 1
  end;
  `Ok ()

let chaos_term =
  let count =
    Arg.(
      value & opt int 50
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of seeded chaos configurations to run.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"First seed; configurations use seeds S, S+1, ... S+N-1.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Scratch directory for checkpoint and failpoint files (default: \
             a fresh directory under the system temp dir).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log one line per configuration to stderr.")
  in
  Term.(ret (const chaos_cmd $ count $ seed $ dir $ verbose))

(* ---- verify command ---- *)

let verify_cmd count seed table1 quick rounds_cap sparse jobs =
  let module D = Mac_verify.Diff in
  let jobs = check_jobs jobs in
  at_least ~min:0 "--count" count;
  Option.iter (at_least ~min:1 "--rounds-cap") rounds_cap;
  (* --sparse certifies the engine against its own dense mode (events,
     summary bytes, checkpoint bytes) rather than against the quadratic
     oracle, so huge configs are fine there; it covers only the
     sparse-capable cells of the catalog. *)
  let reference, random, covered =
    if sparse then
      ( D.Dense,
        D.random_sparse,
        fun (s : Mac_experiments.Scenario.spec) ->
          let module A = (val s.algorithm) in
          Option.is_some A.sparse )
    else (D.Oracle, D.random, fun _ -> true)
  in
  let cap x = match rounds_cap with None -> x | Some c -> min x c in
  let specs =
    if table1 then
      List.filter_map
        (fun (s : Mac_experiments.Scenario.spec) ->
          if covered s then
            Some { s with rounds = cap s.rounds; drain = cap s.drain }
          else None)
        (Mac_experiments.Table1.catalog
           ~scale:(if quick then `Quick else `Full))
    else List.init count (fun i -> random ~seed:(seed + i))
  in
  let verdicts = D.check_all ~jobs reference specs in
  let bad = List.filter (fun v -> not (D.agrees v)) verdicts in
  List.iter (fun v -> Format.printf "%a@." D.pp_verdict v) bad;
  (match reference with
   | D.Oracle ->
     let events =
       List.fold_left (fun acc (v : D.verdict) -> acc + v.events) 0 verdicts
     in
     Printf.printf
       "%d configuration(s), %d event(s) compared, %d divergence(s)\n"
       (List.length verdicts) events (List.length bad)
   | D.Dense ->
     Printf.printf "%d sparse certification(s), %d divergence(s)\n"
       (List.length verdicts) (List.length bad));
  if bad <> [] then exit 1;
  `Ok ()

let verify_term =
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of random configurations to check (ignored with --table1).")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"First seed; configurations use seeds S, S+1, ... S+N-1.")
  in
  let table1 =
    Arg.(
      value & flag
      & info [ "table1" ]
          ~doc:
            "Check the Table-1 catalog instead of random configurations \
             (use --quick for the reduced scale, --rounds-cap to bound \
             oracle time).")
  in
  let rounds_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds-cap" ] ~docv:"T"
          ~doc:
            "Cap injection and drain rounds per configuration. The oracle \
             is deliberately quadratic per round; long catalog runs need \
             this to finish quickly.")
  in
  let sparse =
    Arg.(
      value & flag
      & info [ "sparse" ]
          ~doc:
            "Certify the sparse engine against the dense engine instead of \
             the engine against the oracle: every summary field, checkpoint \
             snapshot byte and event must be identical across modes. With \
             --table1, covers the sparse-capable cells of the catalog; \
             otherwise N random sparse-capable configurations.")
  in
  Term.(
    ret
      (const verify_cmd $ count $ seed $ table1 $ quick_arg $ rounds_cap
       $ sparse $ jobs_arg))

(* ---- serve / fleet commands ---- *)

let serve_cmd dir socket shards checkpoint_every telemetry_every =
  at_least ~min:1 "--shards" shards;
  install_drain_handlers ();
  let socket =
    match socket with
    | Some s -> s
    | None -> Filename.concat dir "serve.sock"
  in
  let cfg =
    { Mac_serve.Server.dir;
      socket;
      shards;
      checkpoint_every;
      telemetry_every;
      log = (fun msg -> Printf.eprintf "serve: %s\n%!" msg) }
  in
  match Mac_serve.Server.create cfg with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2
  | Ok sv ->
    Printf.eprintf "serve: listening on %s (%d shard(s), state in %s)\n%!"
      socket shards dir;
    let `Drained = Mac_serve.Server.run sv in
    (* Same exit discipline as the supervised batch commands: a drain is a
       clean, resumable stop. *)
    exit 4

let serve_term =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "State directory: per-channel meta/checkpoint/event-spool files \
             and telemetry expositions (point routing_sim top at it). A \
             directory left by a drained daemon is re-adopted: open \
             channels resume from their checkpoints.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path (default: DIR/serve.sock).")
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Worker domains hosting the channels (default 2).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 512
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Default checkpoint cadence in rounds for channels that don't \
             specify one (default 512; 0 disables periodic checkpoints — \
             drain and snapshot still write one).")
  in
  let telemetry_every =
    Arg.(
      value & opt int 1000
      & info [ "telemetry-every" ] ~docv:"N"
          ~doc:"Telemetry sampling cadence in rounds (default 1000).")
  in
  Term.(
    ret
      (const serve_cmd $ dir $ socket $ shards $ checkpoint_every
       $ telemetry_every))

let fleet_connect socket =
  match Mac_serve.Client.connect ~socket with
  | Ok c -> c
  | Error msg ->
    Printf.eprintf "fleet: %s\n" msg;
    exit 1

let fleet_cmd socket args output =
  let module J = Mac_channel.Jsonv in
  match args with
  | [ "send"; line ] -> (
    let c = fleet_connect socket in
    Mac_serve.Client.send_line c line;
    match Mac_serve.Client.recv_line c with
    | None ->
      Printf.eprintf "fleet: server closed the connection\n";
      exit 1
    | Some reply ->
      print_endline reply;
      let ok =
        match J.parse reply with
        | Ok v -> Option.bind (J.member "ok" v) J.to_bool = Some true
        | Error _ -> false
      in
      Mac_serve.Client.close c;
      if not ok then exit 1;
      `Ok ())
  | [ "replay"; channel; path ] -> (
    match Mac_serve.Trace_file.load ~path () with
    | Error msg ->
      Printf.eprintf "fleet: %s\n" msg;
      exit 2
    | Ok items -> (
      let c = fleet_connect socket in
      let packets =
        J.List
          (List.map
             (fun (at, src, dst) -> J.List [ J.Int at; J.Int src; J.Int dst ])
             items)
      in
      match
        Mac_serve.Client.request c
          (J.Obj
             [ ("cmd", J.Str "inject");
               ("channel", J.Str channel);
               ("packets", packets) ])
      with
      | Ok reply ->
        print_endline (J.to_string reply);
        Mac_serve.Client.close c;
        `Ok ()
      | Error msg ->
        Printf.eprintf "fleet: %s\n" msg;
        exit 1))
  | [ "watch"; channel ] -> (
    let c = fleet_connect socket in
    match
      Mac_serve.Client.request c
        (J.Obj [ ("cmd", J.Str "subscribe"); ("channel", J.Str channel) ])
    with
    | Error msg ->
      Printf.eprintf "fleet: %s\n" msg;
      exit 1
    | Ok _ack ->
      let oc =
        match output with
        | None -> stdout
        | Some path -> (
          try open_out path
          with Sys_error msg ->
            Printf.eprintf "fleet: %s\n" msg;
            exit 2)
      in
      let rec pump () =
        match Mac_serve.Client.recv_line c with
        | None -> ()
        | Some line ->
          output_string oc line;
          output_char oc '\n';
          pump ()
      in
      pump ();
      if oc != stdout then close_out oc else flush oc;
      Mac_serve.Client.close c;
      `Ok ())
  | _ ->
    Printf.eprintf
      "fleet: usage:\n\
      \  fleet --socket PATH send JSON        one protocol command, print \
       the reply\n\
      \  fleet --socket PATH replay CHAN FILE inject a recorded trace\n\
      \  fleet --socket PATH watch CHAN       stream the channel's events \
       (JSONL) until it completes\n";
    exit 2

let fleet_term =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"The serve daemon's Unix-domain socket.")
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARGS"
          ~doc:"send JSON | replay CHANNEL FILE | watch CHANNEL.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"For watch: write the event stream to FILE instead of stdout.")
  in
  Term.(ret (const fleet_cmd $ socket $ args $ output))

let cmds =
  [ Cmd.v (Cmd.info "run" ~doc:"Simulate one algorithm/adversary scenario") run_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Long-running daemon hosting a fleet of live channel instances, \
            sharded over worker domains: external packet injection, event \
            subscriptions, checkpoint/migrate, live telemetry and \
            crash-respawned shards, over a Unix-socket JSON protocol")
      serve_term;
    Cmd.v
      (Cmd.info "fleet"
         ~doc:
           "Client for the serve daemon: send protocol commands, replay \
            recorded injection traces, stream channel events")
      fleet_term;
    Cmd.v
      (Cmd.info "table1" ~doc:"Re-run Table-1 validation experiments")
      Term.(
        ret
          (const table1_cmd $ id_arg $ batch_term exp_events_arg
           $ table1_json_arg $ table1_resume_dir_arg $ inject_failure_arg));
    Cmd.v
      (Cmd.info "matrix"
         ~doc:
           "Cross-paper algorithm matrix: every algorithm (routing + \
            broadcast families) x every adversary x every fault plan, with \
            per-cell stability verdicts and optional bisected stability \
            frontiers")
      Term.(
        ret
          (const matrix_cmd $ batch_term exp_events_arg $ table1_json_arg
           $ matrix_csv_arg $ table1_resume_dir_arg $ inject_failure_arg
           $ matrix_thresholds_arg $ matrix_only_arg));
    Cmd.v
      (Cmd.info "figures" ~doc:"Re-run figure sweeps")
      Term.(
        ret
          (const figures_cmd $ id_arg $ batch_term exp_events_arg));
    Cmd.v
      (Cmd.info "resilience"
         ~doc:
           "Fault-injection runs: the per-algorithm degradation suite, or one \
            algorithm under a crash/jam fault plan")
      resilience_term;
    Cmd.v
      (Cmd.info "inspect"
         ~doc:"ASCII station-by-round timeline of a run or a recorded event stream")
      inspect_term;
    Cmd.v
      (Cmd.info "top"
         ~doc:
           "Live fleet dashboard over telemetry exposition files (one row \
            per scenario: round, throughput, backlog, p99 delay, energy, ETA)")
      top_term;
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Differential check: the engine against a naive reference oracle, \
            over random configurations or the Table-1 catalog")
      verify_term;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Seeded fault-injection of the supervision and durability layers: \
            scripted job failures, watchdog stalls, checkpoint corruption and \
            rename failures, asserting completed work stays bit-identical to \
            an undisturbed run")
      chaos_term;
    Cmd.v
      (Cmd.info "list" ~doc:"List algorithms and experiments")
      Term.(ret (const list_cmd $ const ())) ]

let () =
  let exits =
    Cmd.Exit.info 3
      ~doc:
        "a supervised sweep (--keep-going) completed, but some scenarios \
         failed every attempt; the successful results were reported. \
         Without --keep-going, a scenario that is quarantined in the \
         --resume-dir or times out stops the sweep with this code."
    :: Cmd.Exit.info 4
         ~doc:
           "the command drained cleanly after SIGTERM/SIGINT: in-flight \
            work was finished and saved, the rest was skipped."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "routing_sim" ~version:"1.0.0" ~exits
      ~doc:"Energy-efficient adversarial routing on multiple access channels"
  in
  (* Domain validation lives in the libraries (bucket rate in (0, 1],
     burst >= 1, schedule arities, ...); surface it as the usual one-line
     exit-2 instead of an uncaught exception. Anything else keeps
     cmdliner's internal-error rendering and exit code. *)
  try exit (Cmd.eval ~catch:false (Cmd.group ~default:run_term info cmds))
  with
  | Mac_sim.Supervisor.Drained ->
    Printf.eprintf
      "routing_sim: drained after a termination request; completed work was \
       saved\n";
    exit 4
  | Mac_sim.Supervisor.Job_gave_up { label; attempts; reason } ->
    Printf.eprintf
      "routing_sim: %s gave up after %d attempt(s) (%s); rerun with \
       --keep-going to finish the other scenarios, or delete its \
       .quarantined marker in the --resume-dir to retry it\n"
      label attempts reason;
    exit 3
  | Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    exit 2
  | e ->
    let bt = Printexc.get_raw_backtrace () in
    Printf.eprintf "routing_sim: internal error, uncaught exception:\n%s\n%s"
      (Printexc.to_string e)
      (Printexc.raw_backtrace_to_string bt);
    exit 125
