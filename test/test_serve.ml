(* Tests for the serve layer: trace files, engine sessions, and the daemon
   itself driven in-process over its Unix socket — including the
   acceptance anchor that externally-injected replay is byte-identical
   (events and summary) to the equivalent batch run, even across shard
   crashes and a daemon drain/restart. *)

module J = Mac_channel.Jsonv
module E = Mac_sim.Engine
module Client = Mac_serve.Client
module Scenario = Mac_experiments.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- trace files ---- *)

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "eear_trace" ".txt" in
  let items = [ (0, 0, 3); (5, 2, 1); (5, 1, 2); (99, 3, 0) ] in
  Mac_serve.Trace_file.save ~path items;
  (match Mac_serve.Trace_file.load ~n:4 ~path () with
   | Ok got -> check_bool "roundtrip" true (got = items)
   | Error msg -> Alcotest.fail msg);
  (* the same file must fail validation under a smaller n *)
  (match Mac_serve.Trace_file.load ~n:3 ~path () with
   | Ok _ -> Alcotest.fail "accepted out-of-range station"
   | Error _ -> ());
  Sys.remove path

let test_trace_file_rejects_bad_lines () =
  let write_lines lines =
    let path = Filename.temp_file "eear_trace" ".txt" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let expect_error lines =
    let path = write_lines lines in
    (match Mac_serve.Trace_file.load ~path () with
     | Ok _ ->
       Alcotest.fail
         (Printf.sprintf "accepted %S" (String.concat "; " lines))
     | Error _ -> ());
    Sys.remove path
  in
  expect_error [ "0 1 1" ];
  expect_error [ "0 -1 2" ];
  expect_error [ "zero 1 2" ];
  expect_error [ "0 1" ];
  (* comments and blank lines are fine *)
  let path = write_lines [ "# header"; ""; "0 0 1"; "  # indented comment" ] in
  (match Mac_serve.Trace_file.load ~n:2 ~path () with
   | Ok got -> check_bool "comments skipped" true (got = [ (0, 0, 1) ])
   | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* A directory opens without error and fails at the first read: the
   loader answers [Error] naming the path, not an exception. *)
let test_trace_file_directory () =
  Helpers.with_temp_dir "eear_trace_dir" (fun dir ->
      match Mac_serve.Trace_file.load ~path:dir () with
      | Ok _ -> Alcotest.fail "loaded a directory"
      | Error msg ->
        check_bool (Printf.sprintf "names the path (got %S)" msg) true
          (String.starts_with ~prefix:(dir ^ ": ") msg))

(* ---- shared fixtures: a tiny externally-fed orchestra channel ---------- *)

let trace6 =
  [ (0, 0, 1); (0, 2, 0); (3, 1, 4); (10, 3, 2); (50, 4, 5); (120, 5, 0);
    (121, 0, 5); (300, 2, 3) ]

(* The batch-mode reference: the spec [adopt_channel] builds for an
   externally fed Orchestra channel, its feed preloaded with [trace]. *)
let reference_spec ~n ~k ~rounds ~drain ~trace =
  Scenario.spec_q ~id:"reference" ~algorithm:(module Mac_routing.Orchestra)
    ~n ~k ~rate:(Mac_channel.Qrat.make 1 2) ~burst:(Mac_channel.Qrat.of_int 2)
    ~pattern:(fun () ->
      snd (Mac_adversary.Pattern.external_queue ~initial:trace ()))
    ~rounds ~drain ()

(* The spool's lines: every event but the telemetry frames. *)
let spool_buffer () =
  let buf = Buffer.create 4096 in
  ( buf,
    Mac_sim.Sink.make (fun ~round ev ->
        match ev with
        | Mac_channel.Event.Telemetry _ -> ()
        | _ ->
          Buffer.add_string buf (Mac_channel.Event.to_json ~round ev);
          Buffer.add_char buf '\n') )

(* The reference run's spool and summary: the serve daemon's must match
   these bytes exactly. *)
let batch_reference ~n ~k ~rounds ~drain ~trace =
  let spec = reference_spec ~n ~k ~rounds ~drain ~trace in
  let buf, sink = spool_buffer () in
  let summary =
    Scenario.simulate ~config:{ (Scenario.config spec) with sink = Some sink }
      spec
  in
  (Buffer.contents buf, Mac_sim.Export.summary_json summary ^ "\n")

(* ---- engine sessions --------------------------------------------------- *)

(* A session advanced in awkward chunks must be bit-identical to the
   closed-loop run — the property serve mode's step-wise driving rests
   on. *)
let test_session_chunked_equals_run () =
  let n = 6 and k = 3 and rounds = 400 and drain = 200 in
  let events_run, summary_run =
    batch_reference ~n ~k ~rounds ~drain ~trace:trace6
  in
  let spec = reference_spec ~n ~k ~rounds ~drain ~trace:trace6 in
  let buf, sink = spool_buffer () in
  let s =
    Scenario.start ~config:{ (Scenario.config spec) with sink = Some sink } spec
  in
  while not (E.session_complete s) do
    ignore (E.advance s ~max_steps:7)
  done;
  let summary = E.finish s in
  check_string "chunked events" events_run (Buffer.contents buf);
  check_string "chunked summary" summary_run
    (Mac_sim.Export.summary_json summary ^ "\n")

(* The same property over random configurations in both modes: dense
   and sparse algorithms under [Auto], with fault plans, pacing and drains,
   with and without a sink (a sink keeps skip-ahead off), and with
   checkpoints on. A session advanced in random budgets, snapshotted after
   every call, must reproduce [Engine.run]'s summary bytes, event stream
   and checkpoint bytes, and resuming from any of those snapshots must
   finish with the same summary. *)
module Diff = Mac_verify.Diff

type observed = {
  summary : (string, string) result;  (* Marshal bytes, or the violation *)
  events : string;
  checkpoints : string list;
}

let config_of (r : Scenario.spec) = { (Diff.config r) with mode = E.Auto }

let observe (r : Scenario.spec) ~with_sink ~every drive =
  let events = Buffer.create 4096 in
  let sink =
    Mac_sim.Sink.make (fun ~round ev ->
        Buffer.add_string events (Mac_channel.Event.to_json ~round ev);
        Buffer.add_char events '\n')
  in
  let checkpoints = ref [] in
  let config =
    { (config_of r) with
      sink = (if with_sink then Some sink else None);
      checkpoint_every = every;
      on_checkpoint =
        Some (fun s -> checkpoints := Marshal.to_string s [] :: !checkpoints) }
  in
  let summary =
    match drive config with
    | s -> Ok (Marshal.to_string (s : Mac_sim.Metrics.summary) [])
    | exception E.Protocol_violation msg -> Error msg
  in
  { summary; events = Buffer.contents events;
    checkpoints = List.rev !checkpoints }

let chunked_equals_run_property =
  QCheck.Test.make ~name:"chunked session = run, dense and sparse" ~count:24
    QCheck.(pair bool (int_range 0 1_000_000))
    (fun (sparse, seed) ->
      let r = if sparse then Diff.random_sparse ~seed else Diff.random ~seed in
      let budgets = Random.State.make [| seed |] in
      List.for_all
        (fun with_sink ->
          let every = 1 + Random.State.int budgets (max 1 (r.rounds / 4)) in
          let whole =
            observe r ~with_sink ~every (fun config ->
                Scenario.simulate ~config r)
          in
          let snapshots = ref [] in
          let chunked =
            observe r ~with_sink ~every (fun config ->
                let s = Scenario.start ~config r in
                while not (E.session_complete s) do
                  ignore (E.advance s ~max_steps:(1 + Random.State.int budgets 64));
                  snapshots := E.session_snapshot s :: !snapshots
                done;
                E.finish s)
          in
          let resumed snap =
            Ok
              (Marshal.to_string
                 (Scenario.simulate ~config:(config_of r) ~resume:snap r)
                 [])
          in
          whole = chunked
          && (Result.is_error whole.summary
             || List.for_all (fun snap -> resumed snap = whole.summary)
                  !snapshots))
        [ false; true ])

(* ---- in-process server -------------------------------------------------- *)

let start_server ~dir ~shards =
  Mac_sim.Supervisor.reset_drain ();
  let socket = Filename.concat dir "serve.sock" in
  let cfg =
    { Mac_serve.Server.dir;
      socket;
      shards;
      checkpoint_every = 32;
      telemetry_every = 100;
      log = (fun _ -> ()) }
  in
  match Mac_serve.Server.create cfg with
  | Error msg -> Alcotest.fail ("server create: " ^ msg)
  | Ok sv ->
    let d = Domain.spawn (fun () -> Mac_serve.Server.run sv) in
    (socket, d)

let stop_server socket d =
  (match Client.connect ~socket with
   | Ok c ->
     Client.send_line c "{\"cmd\":\"drain\"}";
     (try ignore (Client.recv_line c) with _ -> ());
     Client.close c
   | Error _ -> Mac_sim.Supervisor.request_drain ());
  let `Drained = Domain.join d in
  Mac_sim.Supervisor.reset_drain ()

let connect_ok socket =
  match Client.connect ~socket with
  | Ok c -> c
  | Error msg -> Alcotest.fail ("connect: " ^ msg)

let req c fields =
  match Client.request c (J.Obj fields) with
  | Ok v -> v
  | Error msg -> Alcotest.fail ("request failed: " ^ msg)

let req_err c fields =
  match Client.request c (J.Obj fields) with
  | Ok v -> Alcotest.fail ("expected error, got " ^ J.to_string v)
  | Error msg -> msg

(* Repeat a request the daemon may refuse while the channel changes
   hands: "migrating; retry", or a waiter failed by a shard respawn. *)
let req_retry c fields =
  let rec go tries =
    match Client.request c (J.Obj fields) with
    | Ok v -> v
    | Error _ when tries > 0 ->
      Unix.sleepf 0.05;
      go (tries - 1)
    | Error msg -> Alcotest.failf "%s: %s" (J.to_string (J.Obj fields)) msg
  in
  go 100

let int_of key v =
  match Option.bind (J.member key v) J.to_int with
  | Some i -> i
  | None -> Alcotest.failf "no integer %S in %s" key (J.to_string v)

let inject_cmd ~channel trace =
  [ ("cmd", J.Str "inject");
    ("channel", J.Str channel);
    ( "packets",
      J.List
        (List.map
           (fun (a, s, d) -> J.List [ J.Int a; J.Int s; J.Int d ])
           trace) ) ]

let open_cmd ~channel ~rounds ~drain =
  [ ("cmd", J.Str "open");
    ("channel", J.Str channel);
    ("algorithm", J.Str "orchestra");
    ("n", J.Int 6);
    ("k", J.Int 3);
    ("rounds", J.Int rounds);
    ("drain", J.Int drain) ]

(* Satellite: malformed or unknown input must produce a typed error reply —
   never a dropped connection or a dead shard. *)
let test_protocol_errors_are_typed () =
  Helpers.with_temp_dir "eear_serve_err" (fun dir ->
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      Client.send_line c "this is not json";
      (match Client.recv_line c with
       | None -> Alcotest.fail "connection dropped on bad json"
       | Some line -> (
         match J.parse line with
         | Ok reply ->
           check_bool "bad json gets ok:false" true
             (Option.bind (J.member "ok" reply) J.to_bool = Some false)
         | Error msg -> Alcotest.fail ("reply not json: " ^ msg)));
      check_bool "unknown command named in error" true
        (contains (req_err c [ ("cmd", J.Str "frobnicate") ]) "frobnicate");
      check_bool "missing cmd" true
        (contains (req_err c [ ("n", J.Int 1) ]) "cmd");
      check_bool "unknown channel" true
        (contains
           (req_err c
              [ ("cmd", J.Str "step"); ("channel", J.Str "ghost");
                ("rounds", J.Int 1) ])
           "ghost");
      check_bool "bad channel id" true
        (contains
           (req_err c
              (open_cmd ~channel:"no spaces allowed" ~rounds:10 ~drain:0))
           "id");
      (* a field present with the wrong type or out of range is named in the
         error, never replaced by its default; a spec the shard could not start
         is refused the same way, up front, leaving no trace of the id *)
      ignore (req c (open_cmd ~channel:"t" ~rounds:50 ~drain:0));
      List.iter
        (fun (line, named) ->
          Client.send_line c line;
          let err =
            match Option.map J.parse (Client.recv_line c) with
            | Some (Ok reply)
              when Option.bind (J.member "ok" reply) J.to_bool = Some false ->
              Option.value ~default:""
                (Option.bind (J.member "error" reply) J.to_str)
            | _ -> Alcotest.failf "expected an error reply to %s" line
          in
          check_bool
            (Printf.sprintf "%s names %s (got %S)" line named err)
            true
            (contains err named && not (contains err "Failure")))
        [ ({|{"cmd":"open","channel":"bad","algorithm":"orchestra","n":"6"}|}, {|"n"|});
          ( {|{"cmd":"open","channel":"bad","algorithm":"orchestra","checkpoint_every":1e19,"seed":1e19}|},
            {|"seed"|} );
          ( {|{"cmd":"open","channel":"bad","algorithm":"orchestra","checkpoint_every":5e18}|},
            {|"checkpoint_every"|} );
          ( {|{"cmd":"open","channel":"bad","algorithm":"orchestra","checkpoint_every":-1}|},
            {|"checkpoint_every"|} );
          ( {|{"cmd":"open","channel":"x","algorithm":"nope"}|},
            {|"algorithm": unknown algorithm "nope"|} );
          ({|{"cmd":"open","channel":"x","algorithm":"k-subsets","n":4,"k":4}|}, {|"k"|});
          ( {|{"cmd":"open","channel":"x","algorithm":"orchestra","pattern":"flood:x"}|},
            {|"pattern"|} );
          ({|{"cmd":"open","channel":"x","algorithm":"orchestra","rate":"2"}|}, {|"rate"|});
          ( {|{"cmd":"open","channel":"x","algorithm":"orchestra","burst":"1e-300"}|},
            {|"burst"|} );
          ( {|{"cmd":"open","channel":"x","algorithm":"count-hop","n":1,"k":1,"pattern":"round-robin"}|},
            {|"n"|} );
          ({|{"cmd":"inject","channel":"t","at":"5","src":0,"dst":1}|}, {|"at" must be|});
          ({|{"cmd":"inject","channel":"t","src":"0","dst":1}|}, {|"src" must be|});
          ({|{"cmd":"inject","channel":"t","src":0,"dst":[1]}|}, {|"dst" must be|});
          ({|{"cmd":"step","channel":"t","rounds":"5"}|}, {|"rounds" must be|});
          ({|{"cmd":"migrate","channel":"t","shard":"1"}|}, {|"shard" must be|});
          ({|{"cmd":"kill-shard","shard":"0"}|}, {|"shard" must be|});
          ({|{"cmd":"snapshot","channel":["t"]}|}, {|"channel" must be|});
          ({|{"cmd":5}|}, {|"cmd" must be|}) ];
      check_bool "a refused open writes no meta file" false
        (Sys.file_exists (Filename.concat dir "x.meta"));
      ignore (req c (open_cmd ~channel:"x" ~rounds:10 ~drain:0));
      (* after all that abuse the daemon still works end to end *)
      let reply = req c [ ("cmd", J.Str "ping") ] in
      check_bool "ping survives" true
        (Option.bind (J.member "pong" reply) J.to_bool = Some true);
      ignore (req c (open_cmd ~channel:"alive" ~rounds:50 ~drain:0));
      check_bool "self-loop injection rejected" true
        (contains
           (req_err c
              [ ("cmd", J.Str "inject"); ("channel", J.Str "alive");
                ("src", J.Int 0); ("dst", J.Int 0) ])
           "src");
      ignore (req c (inject_cmd ~channel:"alive" [ (0, 0, 1) ]));
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "alive") ] in
      check_bool "run completes after abuse" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      Client.close c;
      stop_server socket d)

(* Acceptance anchor: a channel fed over the socket and run to completion
   writes an event spool and summary byte-identical to the equivalent
   batch run. *)
let test_replay_is_byte_identical_to_batch () =
  let rounds = 400 and drain = 200 in
  Helpers.with_temp_dir "eear_serve_eq" (fun dir ->
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"eq" ~rounds ~drain));
      let reply = req c (inject_cmd ~channel:"eq" trace6) in
      check_int "all packets accepted" (List.length trace6)
        (Option.get (Option.bind (J.member "accepted" reply) J.to_int));
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "eq") ] in
      check_bool "complete" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      check_bool "summary in reply" true (J.member "summary" reply <> None);
      Client.close c;
      stop_server socket d;
      let events, summary =
        batch_reference ~n:6 ~k:3 ~rounds ~drain ~trace:trace6
      in
      check_string "event spool matches batch --events"
        events
        (read_file (Filename.concat dir "eq.events.jsonl"));
      check_string "summary matches batch --json"
        summary
        (read_file (Filename.concat dir "eq.summary.json")))

(* Satellite: a client vanishing mid-subscription must not take the shard
   (or the channel) down with it. *)
let test_disconnect_mid_subscribe_leaves_shard_alive () =
  Helpers.with_temp_dir "eear_serve_sub" (fun dir ->
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"sub" ~rounds:1200 ~drain:0));
      ignore (req c (inject_cmd ~channel:"sub" trace6));
      ignore
        (req c
           [ ("cmd", J.Str "step"); ("channel", J.Str "sub");
             ("rounds", J.Int 400) ]);
      (* subscribe from a second connection, read a little, vanish rudely *)
      let sub = connect_ok socket in
      ignore (req sub [ ("cmd", J.Str "subscribe"); ("channel", J.Str "sub") ]);
      (match Client.recv_line sub with
       | Some line -> check_bool "stream carries events" true (contains line "round")
       | None -> Alcotest.fail "no stream data");
      Client.close sub;
      (* the daemon and the channel's shard must both still be fine *)
      let reply =
        req c
          [ ("cmd", J.Str "step"); ("channel", J.Str "sub");
            ("rounds", J.Int 400) ]
      in
      check_bool "step works after subscriber vanished" true
        (Option.bind (J.member "round" reply) J.to_int <> None);
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "sub") ] in
      check_bool "run completes" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      (* a late subscriber streams the whole spool, then clean EOF *)
      let late = connect_ok socket in
      ignore (req late [ ("cmd", J.Str "subscribe"); ("channel", J.Str "sub") ]);
      let buf = Buffer.create 4096 in
      let rec drainl () =
        match Client.recv_line late with
        | Some line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          drainl ()
        | None -> ()
      in
      drainl ();
      Client.close late;
      Client.close c;
      stop_server socket d;
      check_string "late subscriber sees the full spool"
        (read_file (Filename.concat dir "sub.events.jsonl"))
        (Buffer.contents buf))

(* The strongest form of the equivalence guarantee: kill the shard mid-run
   (respawn re-adopts from the checkpoint, truncating the spool), then
   drain the daemon and restart it (cold re-adoption), and the final
   event spool and summary are STILL byte-identical to an uninterrupted
   batch run. *)
let test_chaos_preserves_byte_identity () =
  let rounds = 600 and drain = 200 in
  Helpers.with_temp_dir "eear_serve_chaos" (fun dir ->
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"chaos" ~rounds ~drain));
      ignore (req c (inject_cmd ~channel:"chaos" trace6));
      ignore
        (req c
           [ ("cmd", J.Str "step"); ("channel", J.Str "chaos");
             ("rounds", J.Int 200) ]);
      ignore (req c [ ("cmd", J.Str "kill-shard"); ("shard", J.Int 0) ]);
      (* the step may race the respawn and get a "re-issue" style error; the
         daemon must answer either way, never hang *)
      let rec step_after_respawn tries =
        match
          Client.request c
            (J.Obj
               [ ("cmd", J.Str "step"); ("channel", J.Str "chaos");
                 ("rounds", J.Int 100) ])
        with
        | Ok _ -> ()
        | Error _ when tries > 0 ->
          Unix.sleepf 0.05;
          step_after_respawn (tries - 1)
        | Error msg -> Alcotest.fail ("step after kill-shard: " ^ msg)
      in
      step_after_respawn 100;
      let stats = req c [ ("cmd", J.Str "stats") ] in
      check_int "respawn counted" 1
        (Option.get (Option.bind (J.member "respawns" stats) J.to_int));
      Client.close c;
      (* drain (SIGTERM path) and restart the daemon on the same state dir *)
      stop_server socket d;
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "chaos") ] in
      check_bool "resumed run completes" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      Client.close c;
      stop_server socket d;
      let events, summary =
        batch_reference ~n:6 ~k:3 ~rounds ~drain ~trace:trace6
      in
      check_string "spool byte-identical despite crash + restart"
        events
        (read_file (Filename.concat dir "chaos.events.jsonl"));
      check_string "summary byte-identical despite crash + restart"
        summary
        (read_file (Filename.concat dir "chaos.summary.json")))

let step_cmd ~channel rounds =
  [ ("cmd", J.Str "step"); ("channel", J.Str channel);
    ("rounds", J.Int rounds) ]

let run_cmd ~channel = [ ("cmd", J.Str "run"); ("channel", J.Str channel) ]

let check_complete reply =
  check_bool "complete" true
    (Option.bind (J.member "complete" reply) J.to_bool = Some true)

let check_batch_bytes ~dir ~channel ~rounds ~drain ~trace =
  let events, summary = batch_reference ~n:6 ~k:3 ~rounds ~drain ~trace in
  check_string "event spool matches batch --events" events
    (read_file (Filename.concat dir (channel ^ ".events.jsonl")));
  check_string "summary matches batch --json" summary
    (read_file (Filename.concat dir (channel ^ ".summary.json")))

(* [snapshot] and [migrate] on a running channel: the snapshot is written
   at the channel's round, and a channel moved to another shard and back
   still writes the batch run's bytes. *)
let test_snapshot_and_migrate_live_channel () =
  let rounds = 600 and drain = 200 in
  Helpers.with_temp_dir "eear_serve_migrate" (fun dir ->
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"mig" ~rounds ~drain));
      ignore (req c (inject_cmd ~channel:"mig" trace6));
      let round = int_of "round" (req c (step_cmd ~channel:"mig" 150)) in
      check_int "stepped" 150 round;
      let snap = req c [ ("cmd", J.Str "snapshot"); ("channel", J.Str "mig") ] in
      check_int "snapshot at the channel's round" round (int_of "round" snap);
      let path = Filename.concat dir "mig.ckpt" in
      check_string "snapshot path" path
        (Option.value ~default:"" (Option.bind (J.member "path" snap) J.to_str));
      (match Mac_sim.Checkpoint.read_latest ~path with
       | Ok (s, `Current) -> check_int "checkpoint round" round (E.snapshot_round s)
       | Ok (_, `Salvaged why) -> Alcotest.fail ("salvaged: " ^ why)
       | Error msg -> Alcotest.fail msg);
      let migrate shard =
        let reply =
          req c
            [ ("cmd", J.Str "migrate"); ("channel", J.Str "mig");
              ("shard", J.Int shard) ]
        in
        check_int "adopted by the target shard" shard (int_of "shard" reply)
      in
      migrate 1;
      ignore (req c (step_cmd ~channel:"mig" 100));
      migrate 0;
      check_complete (req c (run_cmd ~channel:"mig"));
      Client.close c;
      stop_server socket d;
      check_batch_bytes ~dir ~channel:"mig" ~rounds ~drain ~trace:trace6)

let open_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

let check_fds_do_not_grow label before =
  match (before, open_fds ()) with
  | Some before, Some after ->
    check_bool
      (Printf.sprintf "%s: open fds do not grow (%d -> %d)" label before after)
      true (after <= before)
  | _ -> ()

(* Packets accepted after the last checkpoint survive a shard respawn: the
   fresh shard resumes the channel from that checkpoint and is handed every
   push since it, so the run still equals the batch run of the whole trace.
   The respawns close the dead sessions' spools, and the drain closes the
   daemon's own fds: the open fd count stays put. *)
let test_respawn_keeps_accepted_packets () =
  let rounds = 600 and drain = 200 in
  let late = [ (100, 1, 2); (140, 3, 4); (100, 5, 1); (400, 0, 3) ] in
  Helpers.with_temp_dir "eear_serve_carry" (fun dir ->
      let at_start = open_fds () in
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"carry" ~rounds ~drain));
      ignore (req c (inject_cmd ~channel:"carry" trace6));
      (* checkpoints every 32 rounds: the last one before round 100 is at 96 *)
      check_int "past a checkpoint" 100
        (int_of "round" (req c (step_cmd ~channel:"carry" 100)));
      ignore (req c (inject_cmd ~channel:"carry" late));
      let before = open_fds () in
      for _ = 1 to 5 do
        ignore (req c [ ("cmd", J.Str "kill-shard"); ("shard", J.Int 0) ]);
        ignore (req_retry c (step_cmd ~channel:"carry" 10))
      done;
      check_fds_do_not_grow "five respawns" before;
      check_int "five respawns" 5
        (int_of "respawns" (req c [ ("cmd", J.Str "stats") ]));
      check_complete (req_retry c (run_cmd ~channel:"carry"));
      Client.close c;
      stop_server socket d;
      check_fds_do_not_grow "daemon lifetime" at_start;
      check_batch_bytes ~dir ~channel:"carry" ~rounds ~drain
        ~trace:(trace6 @ late))

(* One channel adopted five times (open, three migrations, a shard
   respawn) and run to completion is one started and one completed
   scenario in fleet.prom, whose totals are the finished run's. *)
let test_fleet_counts_a_channel_once () =
  Helpers.with_temp_dir "eear_serve_fleet" (fun dir ->
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore
        (req c
           [ ("cmd", J.Str "open"); ("channel", J.Str "c1");
             ("algorithm", J.Str "count-hop"); ("n", J.Int 6); ("k", J.Int 2);
             ("rounds", J.Int 3000); ("pattern", J.Str "uniform") ]);
      List.iter
        (fun shard ->
          ignore
            (req c
               [ ("cmd", J.Str "migrate"); ("channel", J.Str "c1");
                 ("shard", J.Int shard) ]))
        [ 1; 0; 1 ];
      ignore (req c [ ("cmd", J.Str "kill-shard"); ("shard", J.Int 1) ]);
      check_complete (req_retry c (run_cmd ~channel:"c1"));
      Client.close c;
      stop_server socket d;
      let injected =
        match J.parse (read_file (Filename.concat dir "c1.summary.json")) with
        | Ok v -> int_of "injected" v
        | Error msg -> Alcotest.fail msg
      in
      match
        Mac_sim.Telemetry.parse_exposition
          (read_file (Filename.concat dir "fleet.prom"))
      with
      | Error msg -> Alcotest.fail msg
      | Ok samples ->
        let value name =
          match List.find_opt (fun (n, _, _) -> n = name) samples with
          | Some (_, _, v) -> int_of_float v
          | None -> Alcotest.failf "fleet.prom has no %s" name
        in
        let module N = Mac_sim.Telemetry.Names in
        check_int "started once" 1 (value N.scenarios_started);
        check_int "completed once" 1 (value N.scenarios_completed);
        check_int "injected total is the summary's" injected
          (value N.injected_total))

(* A channel migrated back and forth while a second connection injects
   one packet at a time: every accepted packet is injected by the end of
   the run, and every refusal asks for a retry. *)
let test_migrate_under_injection () =
  Helpers.with_temp_dir "eear_serve_stress" (fun dir ->
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"st" ~rounds:2000 ~drain:0));
      let migrating = Atomic.make true in
      let injector =
        Domain.spawn (fun () ->
            let c = connect_ok socket in
            let accepted = ref 0 and refusals = ref [] and sent = ref 0 in
            while Atomic.get migrating && !sent < 800 do
              for i = 1 to 8 do
                let src = (!sent + i) mod 6 in
                Client.send_line c
                  (J.to_string
                     (J.Obj
                        [ ("cmd", J.Str "inject"); ("channel", J.Str "st");
                          ("src", J.Int src); ("dst", J.Int ((src + 1) mod 6)) ]))
              done;
              for _ = 1 to 8 do
                incr sent;
                match Option.map J.parse (Client.recv_line c) with
                | Some (Ok r)
                  when Option.bind (J.member "ok" r) J.to_bool = Some true ->
                  incr accepted
                | Some (Ok r) ->
                  refusals :=
                    Option.value ~default:""
                      (Option.bind (J.member "error" r) J.to_str)
                    :: !refusals
                | _ -> failwith "inject: no reply"
              done
            done;
            Client.close c;
            (!accepted, !refusals))
      in
      for i = 1 to 20 do
        ignore
          (req_retry c
             [ ("cmd", J.Str "migrate"); ("channel", J.Str "st");
               ("shard", J.Int (i mod 2)) ])
      done;
      Atomic.set migrating false;
      let accepted, refusals = Domain.join injector in
      List.iter
        (fun err ->
          check_bool (Printf.sprintf "refusal asks for a retry (got %S)" err) true
            (contains err "migrating; retry"))
        refusals;
      let reply = req c (run_cmd ~channel:"st") in
      check_complete reply;
      check_int "every accepted packet injected" accepted
        (int_of "injected"
           (Option.value ~default:J.Null (J.member "summary" reply)));
      Client.close c;
      stop_server socket d)

(* ---- faulted channels --------------------------------------------------- *)

let write_plan dir name text =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let faulted_open ~channel ~plan =
  [ ("cmd", J.Str "open");
    ("channel", J.Str channel);
    ("algorithm", J.Str "count-hop");
    ("n", J.Int 6);
    ("k", J.Int 2);
    ("rate", J.Str "3/5");
    ("rounds", J.Int 3000);
    ("drain", J.Int 500);
    ("pattern", J.Str "uniform");
    ("faults", J.Str plan) ]

(* A crash plan strands packets while their consumers are down. Serve
   counts those violations instead of raising, as the batch run does, so
   the channel completes with [Scenario.run]'s summary, byte for byte. *)
let test_faulted_channel_matches_batch () =
  Helpers.with_temp_dir "eear_serve_faults" (fun dir ->
      let plan = write_plan dir "plan.txt" "crash 100 3 keep\n" in
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      ignore (req c (faulted_open ~channel:"f1" ~plan));
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "f1") ] in
      check_bool "complete" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      Client.close c;
      stop_server socket d;
      let ok = function Ok x -> x | Error msg -> Alcotest.fail msg in
      let module Registry = Mac_experiments.Registry in
      let d = Registry.default in
      let outcome =
        Scenario.run
          (Scenario.spec_q ~id:"f1"
             ~algorithm:(ok (Registry.algorithm "count-hop" ~n:6 ~k:2))
             ~n:6 ~k:2
             ~rate:(Mac_channel.Qrat.make 3 5)
             ~burst:d.burst
             ~pattern:(ok (Registry.pattern "uniform" ~n:6 ~seed:d.seed))
             ~rounds:3000 ~drain:500
             ~faults:(ok (Mac_faults.Fault_plan.of_file plan))
             ())
      in
      check_bool "the plan strands packets" true
        (outcome.summary.violations.stranded > 0);
      check_string "summary matches Scenario.run"
        (Mac_sim.Export.summary_json outcome.summary ^ "\n")
        (read_file (Filename.concat dir "f1.summary.json")))

(* A plan naming a station the channel does not have is refused when the
   shard adopts the channel, like an unreadable plan file, instead of
   failing the channel at the crash's round. *)
let test_out_of_range_plan_refused () =
  Helpers.with_temp_dir "eear_serve_plan9" (fun dir ->
      let plan = write_plan dir "plan9.txt" "crash 100 9 keep\n" in
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      let err = req_err c (faulted_open ~channel:"f9" ~plan) in
      check_bool
        (Printf.sprintf "names station 9 and n = 6 (got %S)" err)
        true
        (contains err "station 9" && contains err "n = 6");
      let row =
        List.find
          (fun row -> Option.bind (J.member "id" row) J.to_str = Some "f9")
          (Option.value ~default:[]
             (Option.bind
                (J.member "channels" (req c [ ("cmd", J.Str "list") ]))
                J.to_list))
      in
      check_bool "the channel failed to start" true
        (Option.bind (J.member "status" row) J.to_str = Some "failed");
      Client.close c;
      stop_server socket d)

(* An unreadable plan file — here a directory, which opens and fails at
   the first read — is refused at adoption with a line naming it. *)
let test_directory_plan_refused () =
  Helpers.with_temp_dir "eear_serve_plandir" (fun dir ->
      let plan = Filename.concat dir "plans" in
      Sys.mkdir plan 0o755;
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      let err = req_err c (faulted_open ~channel:"fd" ~plan) in
      check_bool (Printf.sprintf "names the plan path (got %S)" err) true
        (contains err (plan ^ ": "));
      Client.close c;
      stop_server socket d)

(* A terminal channel answers from its status, never "migrating; retry":
   [step] and [run] on a failed channel name the failure, and [snapshot]
   and [migrate] report that it has no live session. A channel refused at
   adoption belongs to no shard, which is what used to send these
   commands down the migration branch forever. *)
let check_failed_answers c ~channel =
  let cmd name extra =
    [ ("cmd", J.Str name); ("channel", J.Str channel) ] @ extra
  in
  List.iter
    (fun (label, fields, expected) ->
      let err = req_err c fields in
      check_bool
        (Printf.sprintf "%s %s answers %S (got %S)" label channel expected err)
        true
        (contains err expected && not (contains err "migrating")))
    [ ("step", cmd "step" [ ("rounds", J.Int 10) ], "channel failed");
      ("run", cmd "run" [], "channel failed");
      ("snapshot", cmd "snapshot" [], "has no live session");
      ("migrate", cmd "migrate" [ ("shard", J.Int 0) ], "has no live session") ]

let test_refused_channel_answers_failed () =
  Helpers.with_temp_dir "eear_serve_refused" (fun dir ->
      let plan = write_plan dir "plan9.txt" "crash 100 9 keep\n" in
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore (req_err c (faulted_open ~channel:"c9" ~plan));
      check_failed_answers c ~channel:"c9";
      Client.close c;
      stop_server socket d)

(* A write torn inside the first event after a checkpoint leaves an
   unterminated fragment at the spool's end, here one that reads as round
   1. Adoption must cut it: a resumed session appending onto it would
   leave a line that is not an event, and the spool would no longer read
   as the batch stream. *)
let test_torn_spool_tail_is_cut () =
  let rounds = 600 and drain = 200 in
  Helpers.with_temp_dir "eear_serve_torn" (fun dir ->
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      ignore (req c (open_cmd ~channel:"torn" ~rounds ~drain));
      ignore (req c (inject_cmd ~channel:"torn" trace6));
      check_int "stepped" 200
        (int_of "round" (req c (step_cmd ~channel:"torn" 200)));
      Client.close c;
      stop_server socket d;
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
          (Filename.concat dir "torn.events.jsonl")
      in
      output_string oc "{\"round\":1";
      close_out oc;
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      check_complete (req c (run_cmd ~channel:"torn"));
      Client.close c;
      stop_server socket d;
      check_batch_bytes ~dir ~channel:"torn" ~rounds ~drain ~trace:trace6)

(* After a drain and restart, the daemon registers finished channels from
   their .meta files without giving them to a shard: a completed channel
   still answers [step] with [complete: true], a failed one with its
   failure. *)
let test_terminal_channels_after_restart () =
  Helpers.with_temp_dir "eear_serve_terminal" (fun dir ->
      let plan = write_plan dir "plan9.txt" "crash 100 9 keep\n" in
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      ignore
        (req c
           [ ("cmd", J.Str "open"); ("channel", J.Str "c5");
             ("algorithm", J.Str "count-hop"); ("n", J.Int 6); ("k", J.Int 2);
             ("rate", J.Str "3/5"); ("rounds", J.Int 300);
             ("pattern", J.Str "uniform") ]);
      let reply = req c [ ("cmd", J.Str "run"); ("channel", J.Str "c5") ] in
      check_bool "c5 completes" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      ignore (req_err c (faulted_open ~channel:"c9" ~plan));
      Client.close c;
      stop_server socket d;
      let socket, d = start_server ~dir ~shards:2 in
      let c = connect_ok socket in
      let reply =
        req c
          [ ("cmd", J.Str "step"); ("channel", J.Str "c5"); ("rounds", J.Int 1) ]
      in
      check_bool "c5 step answers complete" true
        (Option.bind (J.member "complete" reply) J.to_bool = Some true);
      check_int "c5 at its last round" 300
        (Option.value ~default:(-1)
           (Option.bind (J.member "round" reply) J.to_int));
      check_failed_answers c ~channel:"c9";
      Client.close c;
      stop_server socket d)

(* Every reply a faulted channel produces reads as plain text: a failure
   or protocol violation carries its message, not the OCaml constructor
   around it. *)
let test_errors_carry_no_constructor () =
  Helpers.with_temp_dir "eear_serve_ctor" (fun dir ->
      let crash = write_plan dir "plan.txt" "crash 100 3 keep\n" in
      let crash9 = write_plan dir "plan9.txt" "crash 100 9 keep\n" in
      let socket, d = start_server ~dir ~shards:1 in
      let c = connect_ok socket in
      let reply fields =
        Client.send_line c (J.to_string (J.Obj fields));
        Option.value (Client.recv_line c) ~default:""
      in
      let replies =
        List.concat_map
          (fun (channel, plan) ->
            let opened = reply (faulted_open ~channel ~plan) in
            [ opened; reply [ ("cmd", J.Str "run"); ("channel", J.Str channel) ] ])
          [ ("f1", crash); ("f9", crash9) ]
      in
      List.iter
        (fun line ->
          check_bool
            (Printf.sprintf "no constructor in %S" line)
            false
            (contains line "Protocol_violation" || contains line "Failure("
             || contains line "Mac_sim."))
        replies;
      Client.close c;
      stop_server socket d)

let () =
  Alcotest.run "serve"
    [ ("trace-file",
       [ Alcotest.test_case "roundtrip" `Quick test_trace_file_roundtrip;
         Alcotest.test_case "rejects bad lines" `Quick
           test_trace_file_rejects_bad_lines;
         Alcotest.test_case "directory is an error" `Quick
           test_trace_file_directory ]);
      ("session",
       [ Alcotest.test_case "chunked = run" `Quick
           test_session_chunked_equals_run;
         QCheck_alcotest.to_alcotest chunked_equals_run_property ]);
      ("server",
       [ Alcotest.test_case "typed errors" `Quick
           test_protocol_errors_are_typed;
         Alcotest.test_case "replay byte-identical" `Quick
           test_replay_is_byte_identical_to_batch;
         Alcotest.test_case "subscriber disconnect" `Quick
           test_disconnect_mid_subscribe_leaves_shard_alive;
         Alcotest.test_case "chaos byte-identical" `Quick
           test_chaos_preserves_byte_identity;
         Alcotest.test_case "snapshot and migrate a live channel" `Quick
           test_snapshot_and_migrate_live_channel;
         Alcotest.test_case "respawn keeps accepted packets" `Quick
           test_respawn_keeps_accepted_packets;
         Alcotest.test_case "migrate under injection" `Quick
           test_migrate_under_injection;
         Alcotest.test_case "fleet counts a channel once" `Quick
           test_fleet_counts_a_channel_once;
         Alcotest.test_case "faulted channel = batch" `Quick
           test_faulted_channel_matches_batch;
         Alcotest.test_case "out-of-range plan refused" `Quick
           test_out_of_range_plan_refused;
         Alcotest.test_case "directory plan refused" `Quick
           test_directory_plan_refused;
         Alcotest.test_case "refused channel answers failed" `Quick
           test_refused_channel_answers_failed;
         Alcotest.test_case "torn spool tail cut on adoption" `Quick
           test_torn_spool_tail_is_cut;
         Alcotest.test_case "terminal channels after restart" `Quick
           test_terminal_channels_after_restart;
         Alcotest.test_case "errors carry no constructor" `Quick
           test_errors_carry_no_constructor ]) ]
