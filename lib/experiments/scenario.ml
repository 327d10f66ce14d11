type spec = {
  id : string;
  algorithm : Mac_channel.Algorithm.t;
  n : int;
  k : int;
  rate : Mac_channel.Qrat.t;
  burst : Mac_channel.Qrat.t;
  pattern : unit -> Mac_adversary.Pattern.t;
  pacing : Mac_adversary.Adversary.pacing;
  rounds : int;
  drain : int;
  faults : Mac_faults.Fault_plan.t option;
}

let spec_q ~id ~algorithm ~n ~k ~rate ~burst ~pattern
    ?(pacing = Mac_adversary.Adversary.Greedy) ~rounds ?drain ?faults () =
  let drain = match drain with Some d -> d | None -> rounds / 2 in
  { id; algorithm; n; k; rate; burst; pattern; pacing; rounds; drain; faults }

let scaled ~scale ~quick ~full =
  match scale with `Quick -> quick | `Full -> full

(* Faults break protocol assumptions by design (a packet heard while its
   consumers are crashed strands), so a non-empty plan counts violations
   instead of raising. *)
let config spec =
  let module A = (val spec.algorithm) in
  let faulted =
    match spec.faults with
    | Some p -> not (Mac_faults.Fault_plan.is_empty p)
    | None -> false
  in
  { (Mac_sim.Engine.default_config ~rounds:spec.rounds) with
    drain_limit = spec.drain;
    check_schedule = A.oblivious;
    strict = not faulted;
    faults = spec.faults }

(* Every run gets its own adversary: the maker builds fresh pattern
   state, so one spec drives any number of runs alike. *)
let start ?resume ?config:c spec =
  Mac_sim.Engine.start
    ~config:(match c with Some c -> c | None -> config spec)
    ?resume ~algorithm:spec.algorithm ~n:spec.n ~k:spec.k
    ~adversary:
      (Mac_adversary.Adversary.create_q ~rate:spec.rate ~burst:spec.burst
         ~pacing:spec.pacing (spec.pattern ()))
    ~rounds:spec.rounds ()

let simulate ?resume ?config spec =
  let s = start ?resume ?config spec in
  ignore (Mac_sim.Engine.advance s ~max_steps:max_int : int);
  Mac_sim.Engine.finish s

type check = {
  label : string;
  bound : float;
  measured : float;
  ok : bool;
}

type outcome = {
  spec : spec;
  summary : Mac_sim.Metrics.summary;
  stability : Mac_sim.Stability.report;
  checks : check list;
  passed : bool;
}

type checker = Mac_sim.Metrics.summary -> Mac_sim.Stability.report -> check

let worst_delay (s : Mac_sim.Metrics.summary) =
  float_of_int (max s.max_delay s.max_queued_age)

let latency_under bound : checker =
 fun s _ ->
  let measured = worst_delay s in
  { label = "latency"; bound; measured; ok = measured <= bound }

let queues_under bound : checker =
 fun s _ ->
  let measured = float_of_int s.max_total_queue in
  { label = "queues"; bound; measured; ok = measured <= bound }

let cap_at_most cap : checker =
 fun s _ ->
  { label = "energy-cap"; bound = float_of_int cap;
    measured = float_of_int s.max_on; ok = s.max_on <= cap }

let clean : checker =
 fun s _ ->
  let bad =
    (if Mac_sim.Metrics.no_violations s then 0 else 1) + s.collision_rounds
  in
  { label = "clean"; bound = 0.0; measured = float_of_int bad; ok = bad = 0 }

let stable : checker =
 fun _ r ->
  { label = "stable"; bound = Float.infinity; measured = r.Mac_sim.Stability.slope;
    ok = r.Mac_sim.Stability.verdict = Mac_sim.Stability.Stable }

let unstable : checker =
 fun _ r ->
  { label = "unstable"; bound = Float.infinity; measured = r.Mac_sim.Stability.slope;
    ok = r.Mac_sim.Stability.verdict = Mac_sim.Stability.Unstable }

let delivered_all : checker =
 fun s _ ->
  { label = "delivered-all"; bound = float_of_int s.injected;
    measured = float_of_int s.delivered; ok = s.undelivered = 0 }

let schedule_of (module A : Mac_channel.Algorithm.S) ~n ~k =
  Option.map (fun f ~me ~round -> f ~n ~k ~me ~round) A.static_schedule

type observer = id:string -> Mac_sim.Sink.t option

let run ?(checks = []) ?observe ?telemetry ?heartbeat spec =
  let sink =
    match observe with None -> None | Some f -> f ~id:spec.id
  in
  let probe =
    Option.map
      (fun fleet -> Mac_sim.Telemetry.Fleet.probe fleet ~id:spec.id)
      telemetry
  in
  let config = { (config spec) with sink; telemetry = probe; heartbeat } in
  let summary =
    Fun.protect
      ~finally:(fun () -> Option.iter Mac_sim.Sink.close sink)
      (fun () -> simulate ~config spec)
  in
  (match (telemetry, probe) with
   | Some fleet, Some p -> Mac_sim.Telemetry.Fleet.finish fleet p
   | _ -> ());
  let stability = Mac_sim.Stability.classify summary.queue_series in
  let checks = List.map (fun c -> c summary stability) checks in
  { spec; summary; stability; checks;
    passed = List.for_all (fun c -> c.ok) checks }

(* A plain batch on the Supervisor under the default policy: results in
   thunk order, each thunk run exactly once, the first exception aborts
   the batch and is re-raised as itself. A requested drain (SIGTERM/SIGINT)
   surfaces as [Supervisor.Drained]; no other [Error] can come back, since
   the default policy re-raises instead of resolving a failure. *)
let run_batch ?(jobs = 1) thunks =
  List.map
    (function
      | Ok r -> r
      | Error Mac_sim.Supervisor.Skipped -> raise Mac_sim.Supervisor.Drained
      | Error e -> failwith (Mac_sim.Supervisor.error_to_string e))
    (Mac_sim.Supervisor.map ~jobs thunks
       (fun ~heartbeat:_ ~attempt:_ t -> t ()))

(* Supervised sweep: the cells of all groups share one pool, and every
   attempt of a cell, first or retried, runs the same cell value; a spec
   builds its pattern state per run, so a retry replays bit-identically.
   The outcomes, in cell order, are cut back into their groups. *)
let sweep ?(jobs = 1) ?(policy = Mac_sim.Supervisor.default_policy)
    ?quarantined ?on_event ~label groups run =
  let cells =
    List.concat_map (fun (g, cs) -> List.map (fun c -> (g, c)) cs) groups
  in
  let labels = Array.of_list (List.map (fun (_, c) -> label c) cells) in
  let outcomes =
    Array.of_list
      (Mac_sim.Supervisor.map ~policy ~label:(Array.get labels) ?quarantined
         ?on_event ~jobs cells
         (fun ~heartbeat ~attempt:_ (g, c) -> run g c ~heartbeat))
  in
  snd
    (List.fold_left_map
       (fun first (g, cs) ->
         let n = List.length cs in
         let cell i = (labels.(first + i), outcomes.(first + i)) in
         (first + n, (g, List.init n cell)))
       0 groups)

(* Machine-readable form of an outcome: the rows of the CLI's --json. *)
let check_json (c : check) =
  Printf.sprintf
    "{\"label\": \"%s\", \"bound\": %s, \"measured\": %s, \"ok\": %b}"
    (Mac_sim.Export.json_escape c.label)
    (Mac_sim.Export.json_float c.bound)
    (Mac_sim.Export.json_float c.measured)
    c.ok

let verdict_string (o : outcome) =
  Mac_sim.Stability.verdict_to_string o.stability.verdict

let outcome_json ~experiment (o : outcome) =
  Printf.sprintf
    "{\"experiment\": \"%s\", \"scenario\": \"%s\", \"verdict\": \"%s\", \
     \"passed\": %b, \"checks\": [%s], \"summary\": %s}"
    (Mac_sim.Export.json_escape experiment)
    (Mac_sim.Export.json_escape o.spec.id)
    (Mac_sim.Stability.verdict_to_string o.stability.verdict)
    o.passed
    (String.concat ", " (List.map check_json o.checks))
    (Mac_sim.Export.summary_json o.summary)

(* --- Resumable batches ------------------------------------------------- *)

type cached = {
  scenario : string;
  verdict : string;
  succeeded : bool;
  row : string;
}

type resumed = Fresh of outcome | Cached of cached

let resumed_id = function
  | Fresh o -> o.spec.id
  | Cached c -> c.scenario

let resumed_passed = function
  | Fresh o -> o.passed
  | Cached c -> c.succeeded

let resumed_verdict = function
  | Fresh o -> verdict_string o
  | Cached c -> c.verdict

let resumed_json ~experiment = function
  | Fresh o -> outcome_json ~experiment o
  | Cached c -> c.row

(* --- Markers ---------------------------------------------------------------

   Completion and quarantine markers share one layout: a magic line, then
   "scenario <id>", then the marker's own lines. Filenames are derived from
   the scenario id, but the id is also recorded verbatim inside the marker:
   two ids that map to the same filename cannot silently satisfy each
   other. A marker that cannot be read (missing, unreadable, or not a
   regular file) is absent, as is one with the wrong magic or id. Only a
   regular file is opened: opening a FIFO blocks until a writer comes,
   and the quarantine lookup runs under the Supervisor's lock. *)

let read_marker ~magic ~id path =
  let rec lines ic acc =
    match In_channel.input_line ic with
    | Some line -> lines ic (line :: acc)
    | None -> List.rev acc
  in
  match Sys.is_regular_file path with
  | false | (exception Sys_error _) -> None
  | true -> (
    match In_channel.with_open_bin path (fun ic -> lines ic []) with
    | m :: scenario :: rest when m = magic && scenario = "scenario " ^ id ->
      Some rest
    | _ -> None
    | exception Sys_error _ -> None)

(* Atomic and durable: a completion marker that survives the rename but
   not the data would replay an empty row forever. *)
let write_marker ~magic ~id path lines =
  Mac_sim.Durable.write_string ~path
    (String.concat "\n" (magic :: ("scenario " ^ id) :: lines))

(* The rest of [line] after [prefix], when that rest is not empty. *)
let field ~prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Some (String.sub line n (String.length line - n))
  else None

let marker_magic = "MACDONE 1"

let marker_path ~resume_dir id =
  Filename.concat resume_dir (Mac_sim.Durable.file_stem id ^ ".done")

let load_cached ~id path =
  match read_marker ~magic:marker_magic ~id path with
  | Some [ verdict_line; passed_line; row ] -> (
    match (field ~prefix:"verdict " verdict_line, passed_line) with
    | Some verdict, ("passed true" | "passed false") ->
      Some
        { scenario = id; verdict; succeeded = passed_line = "passed true"; row }
    | _ -> None)
  | _ -> None

let store_cached ~experiment path (o : outcome) =
  write_marker ~magic:marker_magic ~id:o.spec.id path
    [ "verdict " ^ verdict_string o;
      Printf.sprintf "passed %b" o.passed;
      outcome_json ~experiment o ]

let run_resumable ?checks ?observe ?telemetry ?heartbeat ~resume_dir
    ~experiment spec =
  if not (Sys.file_exists resume_dir) then Sys.mkdir resume_dir 0o755;
  let path = marker_path ~resume_dir spec.id in
  match load_cached ~id:spec.id path with
  | Some c ->
    Option.iter
      (fun fleet -> Mac_sim.Telemetry.Fleet.note_cached fleet ~id:spec.id)
      telemetry;
    Cached c
  | None ->
    (* The marker's rename can never replace a directory: refuse the
       cell before it runs, naming the path. *)
    if Sys.file_exists path && Sys.is_directory path then
      invalid_arg (path ^ ": Is a directory");
    let o = run ?checks ?observe ?telemetry ?heartbeat spec in
    store_cached ~experiment path o;
    Fresh o

(* --- Quarantine markers -------------------------------------------------

   A scenario that exhausted its retries in a resumable sweep is recorded
   as "<id>.quarantined" next to its (absent) completion marker. A later
   run of the same sweep skips it up front — reported as [Quarantined] —
   instead of burning its full attempt budget again. Delete the file to
   give the scenario another chance. *)

let quarantine_magic = "MACQUAR 1"

let quarantine_path ~resume_dir id =
  Filename.concat resume_dir (Mac_sim.Durable.file_stem id ^ ".quarantined")

let quarantine_lookup ~resume_dir id =
  let path = quarantine_path ~resume_dir id in
  match read_marker ~magic:quarantine_magic ~id path with
  | Some (failures :: _) ->
    Option.bind (field ~prefix:"failures " failures) int_of_string_opt
  | _ -> None

let note_quarantined ~resume_dir ~id ~failures ~error =
  if not (Sys.file_exists resume_dir) then Sys.mkdir resume_dir 0o755;
  write_marker ~magic:quarantine_magic ~id (quarantine_path ~resume_dir id)
    [ Printf.sprintf "failures %d" failures; "error " ^ error ]
