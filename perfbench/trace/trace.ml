(* In-process mirror of the perfbench workloads, timed layer by layer.

     trace.exe --workload W --seed S --seconds T --spans FILE --dir DIR
               [--window N] [LABEL=RUN-ARGS ...]

   perfbench/run.py runs this for [--trace 1]. Each LABEL=RUN-ARGS names
   one simulation in the syntax of [routing_sim run] (-a -n -k --rate
   --burst -p --rounds --drain --inject), so the mirror runs exactly what
   the CLI workload ran. Passes repeat until T seconds have elapsed.

   A span is recorded around every call from this file into a layer's
   public functions: [Scenario.run], [Engine.start/advance/finish],
   [Checkpoint.write_rotated], [Telemetry.render/write_atomic/
   parse_exposition] and [Jsonv.to_string/parse]. Event encoding is too
   fine-grained for a span per call, so its time is summed into one
   [Event.to_json] span per advance batch (start = the batch's start, end =
   start + summed time, count = events). Spans stay in memory and are
   written to FILE as JSONL at exit: id, parent (0 = none), name, workload,
   start_ns and end_ns on the monotonic clock, count. A layer's self time
   is its span's duration minus the part of it that its children cover.

   The last line of standard output is one JSON object: the per-layer
   metrics, the digest of every output (run.py compares them with the
   CLI's), and the checks attempted and failed. *)

module E = Mac_sim.Engine
module J = Mac_serve.Jsonv
module Q = Mac_channel.Qrat
module T = Mac_sim.Telemetry

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : int;
  t1 : int;
  count : int;
}

let spans = ref []
let spans_lock = Mutex.create ()
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let record span =
  Mutex.protect spans_lock (fun () -> spans := span :: !spans)

(* [timed ~parent name f] runs [f id] inside span [id]; returns the result
   and the span's duration in nanoseconds. *)
let timed ?(parent = 0) name f =
  let id = fresh_id () in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  record { id; parent; name; t0; t1; count = 1 };
  (r, t1 - t0)

let write_spans ~path ~workload =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"workload\":\"%s\",\
         \"start_ns\":%d,\"end_ns\":%d,\"count\":%d}\n"
        s.id s.parent s.name workload s.t0 s.t1 s.count)
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc

(* ---- samples, checks, metrics ---- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Nearest-rank percentile; 0 for a layer the workload never crossed. *)
let pct q name =
  match List.sort compare (get name) with
  | [] -> 0.0
  | s ->
    let len = List.length s in
    List.nth s (max 0 (int_of_float (ceil (q *. float_of_int len)) - 1))

let median = pct 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

let attempted = ref 0
let failures = ref []

let check ok what =
  incr attempted;
  if not ok then failures := what :: !failures

let digests : (string * string) list ref = ref []

let note_digest key d =
  match List.assoc_opt key !digests with
  | None -> digests := (key, d) :: !digests
  | Some d0 -> check (d = d0) (key ^ ": output differs between passes")

let md5 s = Digest.to_hex (Digest.string s)

(* ---- simulations in [routing_sim run] syntax ---- *)

type point = {
  label : string;
  algo : string;
  n : int;
  k : int;
  rate : Q.t;
  burst : Q.t;
  pattern : string;
  rounds : int;
  drain : int;
  inject : string option;
}

let parse_point arg =
  let fail () = failwith ("mirror: cannot parse " ^ arg) in
  let i = match String.index_opt arg '=' with Some i -> i | None -> fail () in
  let qrat v = match Q.of_string v with Ok q -> q | Error _ -> fail () in
  let rec go p = function
    | [] -> p
    | "-a" :: v :: r -> go { p with algo = v } r
    | "-n" :: v :: r -> go { p with n = int_of_string v } r
    | "-k" :: v :: r -> go { p with k = int_of_string v } r
    | "--rate" :: v :: r -> go { p with rate = qrat v } r
    | "--burst" :: v :: r -> go { p with burst = qrat v } r
    | "-p" :: v :: r -> go { p with pattern = v } r
    | "--rounds" :: v :: r -> go { p with rounds = int_of_string v } r
    | "--drain" :: v :: r -> go { p with drain = int_of_string v } r
    | "--inject" :: v :: r -> go { p with inject = Some v } r
    | _ -> fail ()
  in
  (* Defaults are the CLI's. *)
  go
    { label = String.sub arg 0 i; algo = "orchestra"; n = 8; k = 3;
      rate = Q.make 1 2; burst = Q.of_int 2; pattern = "uniform";
      rounds = 100_000; drain = 0; inject = None }
    (String.split_on_char ' ' (String.sub arg (i + 1) (String.length arg - i - 1))
     |> List.filter (( <> ) ""))

let algorithm p : Mac_channel.Algorithm.t =
  match p.algo with
  | "orchestra" -> (module Mac_routing.Orchestra)
  | "count-hop" -> (module Mac_routing.Count_hop)
  | "adjust-window" -> (module Mac_routing.Adjust_window)
  | "k-cycle" -> Mac_routing.K_cycle.algorithm ~n:p.n ~k:p.k
  | "k-clique" -> Mac_routing.K_clique.algorithm ~n:p.n ~k:p.k
  | "k-subsets" -> Mac_routing.K_subsets.algorithm ~n:p.n ~k:p.k ()
  | "pair-tdma" -> (module Mac_routing.Pair_tdma)
  | "mbtf" -> (module Mac_broadcast.Mbtf)
  | "ack-rr" -> Mac_broadcast.Ring_broadcast.ack_based ()
  | a -> failwith ("mirror: unsupported algorithm " ^ a)

let pattern p ~seed =
  let module P = Mac_adversary.Pattern in
  match String.split_on_char ':' p.pattern with
  | [ "uniform" ] -> P.uniform ~n:p.n ~seed
  | [ "flood"; v ] -> P.flood ~n:p.n ~victim:(int_of_string v)
  | [ "pair"; s; d ] -> P.pair_flood ~src:(int_of_string s) ~dst:(int_of_string d)
  | [ "round-robin" ] -> P.round_robin ~n:p.n
  | _ -> failwith ("mirror: unsupported pattern " ^ p.pattern)

let adversary p pattern =
  Mac_adversary.Adversary.create_q ~rate:p.rate ~burst:p.burst pattern

let rounds_run (s : Mac_sim.Metrics.summary) = s.rounds + s.drain_rounds

(* injected = delivered + still queued + lost to crashes *)
let conserved (s : Mac_sim.Metrics.summary) =
  s.injected = s.delivered + s.final_total_queue + s.faults.lost_to_crash

type run = {
  summary : Mac_sim.Metrics.summary;
  start_ns : int;
  advance_ns : int;
  steps : int;
  words : float;  (** minor words allocated by [advance] *)
}

(* What [routing_sim run] does, through the session API. *)
let batch_run ~parent ~seed ?telemetry p =
  let algorithm = algorithm p in
  let module A = (val algorithm) in
  let config =
    { (E.default_config ~rounds:p.rounds) with
      mode = E.Auto; drain_limit = p.drain; check_schedule = A.oblivious;
      telemetry }
  in
  let adversary = adversary p (pattern p ~seed) in
  let s, start_ns =
    timed ~parent "Engine.start" (fun _ ->
        E.start ~config ~algorithm ~n:p.n ~k:p.k ~adversary ~rounds:p.rounds ())
  in
  add "sim.engine.start_ms" (float_of_int start_ns /. 1e6);
  let w0 = Gc.minor_words () in
  let steps, advance_ns =
    timed ~parent "Engine.advance" (fun _ -> E.advance s ~max_steps:max_int)
  in
  let words = Gc.minor_words () -. w0 in
  let summary, _ = timed ~parent "Engine.finish" (fun _ -> E.finish s) in
  check (conserved summary) (p.label ^ ": packets not conserved");
  { summary; start_ns; advance_ns; steps; words }

let phases = [ "inject"; "faults"; "resolve"; "deliver"; "observe" ]

(* Per phase: (sum of bucket midpoints, samples) over every probed run. *)
let phase_ns = Hashtbl.create 8

let render ~parent registry =
  let text, ns = timed ~parent "Telemetry.render" (fun _ -> T.render registry) in
  add "sim.telemetry.render_us" (float_of_int ns /. 1e3);
  text

(* The engine times phases with a microsecond wall clock on sampled rounds,
   so most sub-microsecond phases read 0 and the exposition's p50 says
   little; the mean over all samples, from the probe's histograms, does. *)
let note_phases ~parent registry =
  let text = render ~parent registry in
  let parsed, _ =
    timed ~parent "Telemetry.parse_exposition" (fun _ -> T.parse_exposition text)
  in
  check (Result.is_ok parsed) "the exposition does not parse back";
  List.iter
    (fun ph ->
      let h =
        T.register_histogram registry ~labels:[ ("phase", ph) ] T.Names.phase_ns
          (Mac_sim.Histogram.create ())
      in
      List.iter
        (fun (lo, hi, c) ->
          let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt phase_ns ph) in
          Hashtbl.replace phase_ns ph
            (sum +. (float_of_int (c * (lo + hi)) /. 2.0), n + c))
        (Mac_sim.Histogram.buckets h))
    phases

(* ---- catalog: Table 1 and the matrix through Scenario over the pool ---- *)

let catalog_pass ~parent ~jobs =
  let t1_rows = ref [] and m_rows = ref [] and csv = ref [] in
  let busy = ref 0 and longest = ref 0 and words = ref 0.0 and rounds = ref 0 in
  let lock = Mutex.create () in
  let rows = Mac_experiments.Table1.all @ [ Mac_experiments.Matrix.row ] in
  let (), wall =
    timed ~parent "catalog" (fun cat ->
        List.iter
          (fun (e : Mac_experiments.Table1.t) ->
            let outcomes, _ =
              timed ~parent:cat "Scenario.run_batch" (fun row ->
                  Mac_experiments.Scenario.run_batch ~jobs
                    (List.map
                       (fun (c : Mac_experiments.Table1.cell) () ->
                         let w0 = Gc.minor_words () in
                         let o, ns =
                           timed ~parent:row "Scenario.run" (fun _ ->
                               Mac_experiments.Scenario.run ~checks:c.checks c.spec)
                         in
                         let w = Gc.minor_words () -. w0 in
                         Mutex.protect lock (fun () ->
                             busy := !busy + ns;
                             longest := max !longest ns;
                             words := !words +. w;
                             rounds := !rounds + rounds_run o.summary;
                             add "scenario_s" (float_of_int ns /. 1e9));
                         o)
                       (e.cells ~scale:`Quick)))
            in
            List.iter
              (fun (o : Mac_experiments.Scenario.outcome) ->
                check o.passed (o.spec.id ^ " did not pass");
                check (conserved o.summary) (o.spec.id ^ ": packets not conserved");
                let row = Mac_experiments.Scenario.outcome_json ~experiment:e.id o in
                if e == Mac_experiments.Matrix.row then begin
                  m_rows := row :: !m_rows;
                  csv :=
                    Mac_experiments.Matrix.csv_line (Mac_experiments.Scenario.Fresh o)
                    :: !csv
                end
                else t1_rows := row :: !t1_rows)
              outcomes)
          rows)
  in
  let json rows = "[\n" ^ String.concat ",\n" (List.rev rows) ^ "\n]\n" in
  note_digest "table1.json" (md5 (json !t1_rows));
  note_digest "matrix.json" (md5 (json !m_rows));
  note_digest "matrix.csv"
    (md5
       (Mac_experiments.Matrix.csv_header ^ "\n"
       ^ String.concat "\n" (List.rev !csv)
       ^ "\n"));
  add "scenarios" (float_of_int (List.length !t1_rows + List.length !m_rows));
  add "pool_busy_share" (ratio (float_of_int !busy) (float_of_int (jobs * wall)));
  add "words_per_round" (ratio !words (float_of_int !rounds));
  add "scenario_max_s" (float_of_int !longest /. 1e9)

(* ---- paper-horizon: dense round loops, plain and probed interleaved ---- *)

(* Telemetry overhead: plain, probed, plain, probed per point, so neither
   side always runs second on a warm heap. *)
let paper_pass ~parent ~seed points =
  let plain = ref 0 and probed = ref 0 in
  let point p id =
    for _ = 1 to 2 do
      let r = batch_run ~parent:id ~seed p in
      let rounds = float_of_int (rounds_run r.summary) in
      plain := !plain + r.advance_ns;
      add (p.label ^ ".ns_per_round") (ratio (float_of_int r.advance_ns) rounds);
      add (p.label ^ ".minor_words_per_round") (ratio r.words rounds);
      note_digest p.label (md5 (Mac_sim.Export.summary_json r.summary));
      let registry = T.create () in
      let r = batch_run ~parent:id ~seed ~telemetry:(T.probe registry) p in
      probed := !probed + r.advance_ns;
      note_digest p.label (md5 (Mac_sim.Export.summary_json r.summary));
      note_phases ~parent:id registry
    done
  in
  List.iter (fun p -> ignore (timed ~parent p.label (point p))) points;
  add "overhead_pct"
    (100.0 *. (ratio (float_of_int !probed) (float_of_int !plain) -. 1.0))

(* ---- huge-horizon: the sparse engine's skip-dominated regime ---- *)

let huge_pass ~parent ~seed points =
  List.iter
    (fun p ->
      let r = batch_run ~parent ~seed p in
      let s = r.summary in
      let rounds = float_of_int (rounds_run s) in
      add ("sim.engine.skip_share." ^ p.label)
        (1.0 -. ratio (float_of_int r.steps) rounds);
      add ("adversary.ns_per_admission." ^ p.label)
        (ratio (float_of_int r.advance_ns) (float_of_int s.injected));
      add ("sim.engine.start_ms." ^ p.label) (float_of_int r.start_ns /. 1e6);
      add "peak_packets" (float_of_int s.max_total_queue);
      note_digest p.label (md5 (Mac_sim.Export.summary_json s)))
    points

(* ---- serve-replay: the daemon's channel work, in process ---- *)

(* The daemon's defaults (routing_sim serve): checkpoint every 512 rounds,
   telemetry probe every 1000, run batches of 2048 steps. *)
let checkpoint_every = 512
let telemetry_every = 1000
let run_batch = 2048

(* Checkpoints written, and their bytes, in the current pass. *)
let checkpoints = ref 0
let checkpoint_bytes = ref 0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let serve_channel ~parent ~dir ~window ~phase_registry p =
  let id = p.label in
  let items =
    match Mac_serve.Trace_file.load ~n:p.n ~path:(Option.get p.inject) () with
    | Ok items -> items
    | Error msg -> failwith msg
  in
  let algorithm = algorithm p in
  let module A = (val algorithm) in
  let feed, pattern = Mac_adversary.Pattern.external_queue () in
  let path ext = Filename.concat dir (id ^ ext) in
  let fd =
    Unix.openfile (path ".events.jsonl")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let buf = Buffer.create 8192 in
  let enc_ns = ref 0 and enc_n = ref 0 and bytes = ref 0 in
  let sink =
    Mac_sim.Sink.make (fun ~round ev ->
        match ev with
        | Mac_channel.Event.Telemetry _ -> ()
        | _ ->
          let t0 = now () in
          let line = Mac_channel.Event.to_json ~round ev in
          enc_ns := !enc_ns + (now () - t0);
          incr enc_n;
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
  in
  let flush ~parent =
    let (), ns =
      timed ~parent "serve.spool.write" (fun _ ->
          bytes := !bytes + Buffer.length buf;
          write_all fd (Buffer.contents buf);
          Buffer.clear buf)
    in
    add "spool_write_ms" (float_of_int ns /. 1e6)
  in
  (* Callbacks run inside [Engine.advance]; their spans hang off it. *)
  let current = ref parent in
  let on_sample ~round:_ registry =
    let text = render ~parent:!current registry in
    let (), ns =
      timed ~parent:!current "Telemetry.write_atomic" (fun _ ->
          T.write_atomic ~path:(path ".prom") text)
    in
    add "telemetry_write_ms" (float_of_int ns /. 1e6)
  in
  let on_checkpoint snap =
    flush ~parent:!current;
    let (), ns =
      timed ~parent:!current "Checkpoint.write_rotated" (fun _ ->
          Mac_sim.Checkpoint.write_rotated ~path:(path ".ckpt") snap)
    in
    add "checkpoint_ms" (float_of_int ns /. 1e6);
    incr checkpoints;
    checkpoint_bytes := !checkpoint_bytes + (Unix.stat (path ".ckpt")).Unix.st_size
  in
  let registry = T.create ~labels:[ ("scenario", id) ] () in
  let config =
    { (E.default_config ~rounds:p.rounds) with
      drain_limit = p.drain; check_schedule = A.oblivious; sink = Some sink;
      checkpoint_every; on_checkpoint = Some on_checkpoint;
      telemetry = Some (T.probe ~every:telemetry_every ~on_sample registry) }
  in
  let session, start_ns =
    timed ~parent "Engine.start" (fun _ ->
        E.start ~config ~algorithm ~n:p.n ~k:p.k ~adversary:(adversary p pattern)
          ~rounds:p.rounds ())
  in
  add "sim.engine.start_ms" (float_of_int start_ns /. 1e6);
  let advance steps =
    let t0 = now () and e0 = !enc_ns and n0 = !enc_n in
    let _, _ =
      timed ~parent "Engine.advance" (fun adv ->
          current := adv;
          ignore (E.advance session ~max_steps:steps : int);
          current := parent;
          record
            { id = fresh_id (); parent = adv; name = "Event.to_json"; t0;
              t1 = t0 + (!enc_ns - e0); count = !enc_n - n0 })
    in
    flush ~parent
  in
  (* Per window, the client's inject command (encoded and decoded as the
     protocol does) and then one step of [window] rounds. *)
  let pending = ref items in
  for w = 0 to (p.rounds / window) - 1 do
    let rec take acc = function
      | ((at, _, _) as x) :: rest when at < (w + 1) * window -> take (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let batch, rest = take [] !pending in
    pending := rest;
    let cmd =
      J.Obj
        [ ("cmd", J.Str "inject"); ("channel", J.Str id);
          ( "packets",
            J.List (List.map (fun (a, s, d) -> J.List [ J.Int a; J.Int s; J.Int d ]) batch) ) ]
    in
    let line, enc = timed ~parent "Jsonv.to_string" (fun _ -> J.to_string cmd) in
    let decoded, dec = timed ~parent "Jsonv.parse" (fun _ -> J.parse line) in
    add "jsonv_encode_us" (float_of_int enc /. 1e3);
    add "jsonv_decode_us" (float_of_int dec /. 1e3);
    check (decoded = Ok cmd) (id ^ ": inject command does not round-trip");
    ignore
      (timed ~parent "serve.inject" (fun _ ->
           List.iter (fun (at, src, dst) -> feed.push ~at ~src ~dst) batch));
    advance window
  done;
  check (!pending = []) (id ^ ": trace reaches past the last window");
  while not (E.session_complete session) do
    advance run_batch
  done;
  let s, _ = timed ~parent "Engine.finish" (fun _ -> E.finish session) in
  Unix.close fd;
  check (conserved s) (id ^ ": packets not conserved");
  T.merge_into ~into:phase_registry registry;
  let rounds = float_of_int (rounds_run s) in
  add "events_per_round" (ratio (float_of_int !enc_n) rounds);
  add "bytes_per_round" (ratio (float_of_int !bytes) rounds);
  add "encode_ns_per_event" (ratio (float_of_int !enc_ns) (float_of_int !enc_n));
  note_digest (id ^ ".summary.json") (md5 (Mac_sim.Export.summary_json s ^ "\n"));
  note_digest (id ^ ".events.jsonl") (Digest.to_hex (Digest.file (path ".events.jsonl")))

let remove_files dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let serve_pass ~parent ~dir ~window points =
  remove_files dir;
  checkpoints := 0;
  checkpoint_bytes := 0;
  let phase_registry = T.create () in
  List.iter
    (fun p ->
      ignore
        (timed ~parent p.label (fun id ->
             serve_channel ~parent:id ~dir ~window ~phase_registry p)))
    points;
  note_phases ~parent phase_registry;
  add "checkpoints" (float_of_int !checkpoints);
  add "checkpoint_bytes" (float_of_int !checkpoint_bytes);
  remove_files dir

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 1.0 in
  let spans_path = ref "" and dir = ref "" and window = ref 400 in
  let points = ref [] in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to mirror");
      ("--seed", Arg.Set_int seed, "N seed of the generator patterns");
      ("--seconds", Arg.Set_float seconds, "T run passes for T seconds");
      ("--spans", Arg.Set_string spans_path, "FILE where the spans go");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for outputs");
      ("--window", Arg.Set_int window, "N serve-replay rounds per step") ]
    (fun a -> points := parse_point a :: !points)
    "trace.exe --workload W --seed S --seconds T --spans FILE --dir DIR \
     [LABEL=RUN-ARGS ...]";
  let points = List.rev !points and seed = !seed and dir = !dir in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let pass ~parent =
    match !workload with
    | "catalog" -> catalog_pass ~parent ~jobs:2
    | "paper-horizon" -> paper_pass ~parent ~seed points
    | "huge-horizon" -> huge_pass ~parent ~seed points
    | "serve-replay" -> serve_pass ~parent ~dir ~window:!window points
    | w -> failwith ("mirror: unknown workload " ^ w)
  in
  (* Like run.py: stop where the run ends nearest to the deadline. *)
  let deadline = now () + int_of_float (!seconds *. 1e9) in
  let passes = ref 0 and last = ref 0 in
  while !passes = 0 || now () + (!last / 2) < deadline do
    last := snd (timed "pass" (fun parent -> pass ~parent));
    incr passes
  done;
  write_spans ~path:!spans_path ~workload:!workload;
  let phase ph =
    let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt phase_ns ph) in
    (Printf.sprintf "sim.engine.phase.%s.mean_ns" ph, ratio sum (float_of_int n))
  in
  let fixed =
    [ ("experiments.scenarios", median "scenarios");
      ("experiments.scenario_p50_s", median "scenario_s");
      ("experiments.scenario_max_s", median "scenario_max_s");
      ("experiments.pool_busy_share", median "pool_busy_share");
      ("experiments.minor_words_per_round", median "words_per_round");
      ("sim.engine.start_ms", median "sim.engine.start_ms");
      ("channel.pqueue.peak_packets", pct 1.0 "peak_packets");
      ("channel.event.encode_ns_per_event", median "encode_ns_per_event");
      ("channel.event.events_per_round", median "events_per_round");
      ("channel.event.bytes_per_round", median "bytes_per_round");
      ("serve.spool.write_ms_p50", median "spool_write_ms");
      ("sim.checkpoint.write_p50_ms", median "checkpoint_ms");
      ("sim.checkpoint.write_p99_ms", pct 0.99 "checkpoint_ms");
      ("sim.checkpoint.bytes", median "checkpoint_bytes");
      ("sim.checkpoint.count", median "checkpoints");
      ("sim.telemetry.render_us_p50", median "sim.telemetry.render_us");
      ("sim.telemetry.write_ms_p50", median "telemetry_write_ms");
      ("sim.telemetry.overhead_pct", median "overhead_pct");
      ("serve.jsonv.encode_us", median "jsonv_encode_us");
      ("serve.jsonv.decode_us", median "jsonv_decode_us") ]
    @ List.map phase phases
  in
  let per_point =
    Hashtbl.fold
      (fun name _ acc ->
        if
          List.exists
            (fun p ->
              String.starts_with ~prefix:(p.label ^ ".") name
              || String.ends_with ~suffix:("." ^ p.label) name)
            points
        then (name, median name) :: acc
        else acc)
      samples []
  in
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  let str s = "\"" ^ Mac_sim.Export.json_escape s ^ "\"" in
  print_endline
    (obj
       [ "\"passes\": " ^ string_of_int !passes;
         "\"attempted\": " ^ string_of_int !attempted;
         "\"failures\": ["
         ^ String.concat ", " (List.rev_map str !failures)
         ^ "]";
         "\"digests\": "
         ^ obj (List.rev_map (fun (k, d) -> str k ^ ": " ^ str d) !digests);
         "\"metrics\": "
         ^ obj
             (List.map
                (fun (k, v) -> Printf.sprintf "%s: %.17g" (str k) v)
                (fixed @ List.sort compare per_point)) ])
