(* Tests for the typed event stream: JSON round-trips, sink combinators,
   the replay guarantee (a recorded run re-aggregated offline reproduces
   the live metrics), per-station ledgers, the delay histogram, and the
   timeline renderer. *)

open Mac_channel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Event JSON round-trip ---- *)

let all_variants : Event.t list =
  [ Injected { id = 3; src = 0; dst = 2 };
    Switched_on { station = 5 };
    Switched_off { station = 0 };
    Transmit { station = 1; light = false };
    Transmit { station = 2; light = true };
    Silence;
    Collision { stations = [ 0; 3; 7 ] };
    Heard { station = 4; bits = 12; light = true };
    Heard { station = 4; bits = 0; light = false };
    Delivered { id = 9; from_ = 1; dst = 6; delay = 481; hops = 2 };
    Delivered { id = 0; from_ = 0; dst = 0; delay = 0; hops = 0 };
    Relayed { id = 7; from_ = 2; relay = 3; dst = 5 };
    Stranded { id = 11; station = 2 };
    Cap_exceeded { on_count = 5; cap = 3 };
    Adoption_conflict { stations = [ 1; 2 ] };
    Spurious_adoption { stations = [ 4 ] };
    Round_end { on_count = 2; draining = false };
    Round_end { on_count = 0; draining = true };
    Collision { stations = [] };
    Station_crashed { station = 3; lost = 0 };
    Station_crashed { station = 0; lost = 17 };
    Station_restarted { station = 3 };
    Round_jammed { transmitters = 0; noise = true };
    Round_jammed { transmitters = 1; noise = false };
    Round_jammed { transmitters = 4; noise = false };
    Telemetry { sample = [] };
    Telemetry
      { sample =
          [ ("eear_round", 12_000.0); ("eear_rounds_per_second", 123456.75);
            ("eear_backlog_packets", 0.0);
            ("eear_gc_minor_words_per_round", 0.1000000000000000055511151231257827);
            ("eear_phase_ns{phase=\"inject\"}", 481.0);
            ("odd \\ name", -3.5) ] } ]

(* The exact line of every entry in [all_variants] at round 17 (i + 1):
   recorded journals, serve spools and the golden digests all rest on
   these bytes. *)
let pinned_lines =
  [ {|{"round":17,"type":"injected","id":3,"src":0,"dst":2}|};
    {|{"round":34,"type":"switched_on","station":5}|};
    {|{"round":51,"type":"switched_off","station":0}|};
    {|{"round":68,"type":"transmit","station":1,"light":false}|};
    {|{"round":85,"type":"transmit","station":2,"light":true}|};
    {|{"round":102,"type":"silence"}|};
    {|{"round":119,"type":"collision","stations":[0,3,7]}|};
    {|{"round":136,"type":"heard","station":4,"bits":12,"light":true}|};
    {|{"round":153,"type":"heard","station":4,"bits":0,"light":false}|};
    {|{"round":170,"type":"delivered","id":9,"from":1,"dst":6,"delay":481,"hops":2}|};
    {|{"round":187,"type":"delivered","id":0,"from":0,"dst":0,"delay":0,"hops":0}|};
    {|{"round":204,"type":"relayed","id":7,"from":2,"relay":3,"dst":5}|};
    {|{"round":221,"type":"stranded","id":11,"station":2}|};
    {|{"round":238,"type":"cap_exceeded","on":5,"cap":3}|};
    {|{"round":255,"type":"adoption_conflict","stations":[1,2]}|};
    {|{"round":272,"type":"spurious_adoption","stations":[4]}|};
    {|{"round":289,"type":"round_end","on":2,"draining":false}|};
    {|{"round":306,"type":"round_end","on":0,"draining":true}|};
    {|{"round":323,"type":"collision","stations":[]}|};
    {|{"round":340,"type":"station_crashed","station":3,"lost":0}|};
    {|{"round":357,"type":"station_crashed","station":0,"lost":17}|};
    {|{"round":374,"type":"station_restarted","station":3}|};
    {|{"round":391,"type":"round_jammed","transmitters":0,"noise":true}|};
    {|{"round":408,"type":"round_jammed","transmitters":1,"noise":false}|};
    {|{"round":425,"type":"round_jammed","transmitters":4,"noise":false}|};
    {|{"round":442,"type":"telemetry","sample":{}}|};
    {|{"round":459,"type":"telemetry","sample":{"eear_round":12000,"eear_rounds_per_second":123456.75,"eear_backlog_packets":0,"eear_gc_minor_words_per_round":0.10000000000000001,"eear_phase_ns{phase=\"inject\"}":481,"odd \\ name":-3.5}}|} ]

let test_json_roundtrip () =
  List.iteri
    (fun i (ev, pinned) ->
      let round = 17 * (i + 1) in
      let line = Event.to_json ~round ev in
      Alcotest.(check string) "pinned line" pinned line;
      match Event.of_json_line line with
      | Ok (round', ev') ->
        check_int (Printf.sprintf "round of %s" line) round round';
        check_bool (Printf.sprintf "event of %s" line) true (ev = ev')
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    (List.combine all_variants pinned_lines)

let test_json_rejects_malformed () =
  let bad =
    [ "";
      "not json";
      "{\"round\":1}";
      "{\"type\":\"silence\"}";
      "{\"round\":1,\"type\":\"no-such-type\"}";
      "{\"round\":1,\"type\":\"injected\",\"id\":1,\"src\":0}";
      "{\"round\":1,\"type\":\"silence\"} trailing";
      "{\"round\":\"one\",\"type\":\"silence\"}";
      {|{"round":1.0,"type":"silence"}|};
      {|{"round":1,"type":"collision","stations":[1,"2"]}|} ]
  in
  List.iter
    (fun line ->
      match Event.of_json_line line with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" line
      | Error _ -> ())
    bad

(* ---- \u escapes ---- *)

let test_unicode_escapes_decode () =
  (match Event.of_json_line {|{"round":1,"type":"\u0073ilence"}|} with
   | Ok (1, Event.Silence) -> ()
   | Ok _ -> Alcotest.fail "\\u0073 decoded to the wrong event"
   | Error msg -> Alcotest.failf "\\u0073ilence rejected: %s" msg);
  (match
     Event.of_json_line
       {|{"round":2,"type":"telemetry","sample":{"caf\u00e9":1.5}}|}
   with
   | Ok (2, Event.Telemetry { sample = [ (k, 1.5) ] }) ->
     Alcotest.(check string) "BMP escape decodes to UTF-8" "caf\xc3\xa9" k
   | Ok _ -> Alcotest.fail "telemetry sample mis-parsed"
   | Error msg -> Alcotest.failf "\\u00e9 rejected: %s" msg);
  match
    Event.of_json_line
      {|{"round":3,"type":"telemetry","sample":{"\ud83d\ude00":1}}|}
  with
  | Ok (3, Event.Telemetry { sample = [ (k, 1.0) ] }) ->
    Alcotest.(check string) "surrogate pair decodes to UTF-8"
      "\xf0\x9f\x98\x80" k
  | Ok _ -> Alcotest.fail "telemetry sample mis-parsed"
  | Error msg -> Alcotest.failf "surrogate pair rejected: %s" msg

(* Bad escapes must come back as [Error] — historically "\uZZZZ" escaped
   as an untyped [Failure] from int_of_string and "\u12_3" (underscores
   are digit separators to OCaml) was silently accepted. *)
let test_unicode_escape_errors_are_typed () =
  List.iter
    (fun line ->
      match Event.of_json_line line with
      | Ok _ -> Alcotest.failf "accepted bad \\u escape %S" line
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "%S leaked exception %s" line (Printexc.to_string e))
    [ {|{"round":1,"type":"\uZZZZ"}|};
      {|{"round":1,"type":"\u12_3"}|};
      {|{"round":1,"type":"\u00"}|};
      {|{"round":1,"type":"\ud800no"}|};
      {|{"round":1,"type":"\udc00"}|};
      {|{"round":1,"type":"\ud800A"}|} ]

(* ---- the shared codec ---- *)

module J = Jsonv

let test_jsonv_roundtrip () =
  let v =
    J.Obj
      [ ("cmd", J.Str "open");
        ("n", J.Int 6);
        ("rate", J.Float 0.5);
        ("neg", J.Int (-3));
        ("flags", J.List [ J.Bool true; J.Bool false; J.Null ]);
        ("nested", J.Obj [ ("s", J.Str "a\"b\\c\nd\te") ]);
        ("empty", J.List []) ]
  in
  let s = J.to_string v in
  check_bool "single line" false (String.contains s '\n');
  (match J.parse s with
   | Ok v' -> check_bool "roundtrip" true (v = v')
   | Error msg -> Alcotest.fail ("roundtrip parse: " ^ msg));
  check_int "member/to_int" 6
    (Option.get (Option.bind (J.member "n" v) J.to_int));
  check_bool "member on non-obj" true (J.member "x" (J.Int 1) = None);
  (* integral floats convert only inside the int range *)
  check_bool "to_int 1e19" true (J.to_int (J.Float 1e19) = None);
  check_bool "to_int 5e18" true (J.to_int (J.Float 5e18) = None);
  check_bool "to_int -2^62" true (J.to_int (J.Float (-0x1p62)) = Some min_int);
  check_bool "to_int 3.0" true (J.to_int (J.Float 3.0) = Some 3);
  (* the parser rejects nan/inf tokens, so the writer never emits them *)
  Alcotest.(check string) "nan writes 0" "[0,0]"
    (J.to_string (J.List [ J.Float Float.nan; J.Float Float.neg_infinity ]))

let test_jsonv_rejects_malformed () =
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    [ "";
      "{";
      "[1,";
      "[1,]";
      "{\"a\":}";
      "{\"a\" 1}";
      "tru";
      "nul";
      "\"unterminated";
      "1 2";
      "{} trailing" ]

(* Valid lines to damage: every event variant and some protocol lines. *)
let valid_lines =
  List.mapi (fun i ev -> Event.to_json ~round:(17 * i) ev) all_variants
  @ [ {|{"cmd":"open","channel":"c1","algorithm":"count-hop","n":6,"rate":"1/2","faults":null}|};
      {|{"cmd":"inject","channel":"c1","packets":[[0,0,1],[3,1,4]]}|};
      {|{"ok":true,"summary":{"mean_delay":2.5e-3,"s":"caf\u00e9\ud83d\ude00"}}|} ]

let decoders_total line =
  (match J.parse line with Ok _ | Error _ -> ());
  match Event.of_json_line line with Ok _ | Error _ -> true

let qcheck_decoders_total_on_strings =
  QCheck.Test.make ~name:"decoders_total_on_arbitrary_strings" ~count:1000
    QCheck.string decoders_total

(* A generator of single-byte edits of one of [valid]: replace, delete
   or insert one byte. *)
let single_byte_edits valid =
  QCheck.map
    (fun (which, edit, at, c) ->
      let s = List.nth valid which in
      let at = at mod (String.length s + 1) in
      let before = String.sub s 0 at in
      let after k = String.sub s k (String.length s - k) in
      match edit with
      | 0 when at < String.length s -> before ^ String.make 1 c ^ after (at + 1)
      | 1 when at < String.length s -> before ^ after (at + 1)
      | _ -> before ^ String.make 1 c ^ after at)
    QCheck.(
      quad (int_bound (List.length valid - 1)) (int_bound 2) (int_bound 10_000)
        char)
  |> QCheck.set_print (Printf.sprintf "%S")

let qcheck_decoders_total_on_edits =
  QCheck.Test.make ~name:"decoders_total_on_single_byte_edits"
    ~count:2000 (single_byte_edits valid_lines) decoders_total

(* The parsers of files that cross a process boundary: a telemetry
   exposition, a fault plan, and a trace file, loaded from disk. Each
   answers [Ok] or [Error] on any text, never raises. Every input goes
   to all three. *)
let valid_files =
  List.map
    (fun path -> In_channel.with_open_bin path In_channel.input_all)
    [ "golden/telemetry.prom"; "golden/fault_plan_ranges.txt" ]
  @ [ "# a small trace\n0 0 1\n5 2 1\n5 1 2\n99 3 0\n" ]

let file_parsers_total text =
  (match Mac_sim.Telemetry.parse_exposition text with Ok _ | Error _ -> ());
  (match Mac_faults.Fault_plan.of_string text with Ok _ | Error _ -> ());
  let path = Filename.temp_file "eear_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      match Mac_serve.Trace_file.load ~n:4 ~path () with
      | Ok _ | Error _ -> true)

let qcheck_file_parsers_total_on_strings =
  QCheck.Test.make ~name:"file_parsers_total_on_arbitrary_strings"
    ~count:1000 QCheck.string file_parsers_total

let qcheck_file_parsers_total_on_edits =
  QCheck.Test.make ~name:"file_parsers_total_on_single_byte_edits"
    ~count:2000 (single_byte_edits valid_files) file_parsers_total

let finite f = if Float.is_finite f then f else 0.0

(* Values whose floats are finite and non-integral: an integral float
   prints without a fraction and so parses back as an [Int]. *)
let jsonv_gen =
  let open QCheck.Gen in
  let non_integral f = if Float.is_integer (finite f) then 0.5 else f in
  let leaf =
    oneof
      [ pure J.Null; map (fun b -> J.Bool b) bool; map (fun i -> J.Int i) int;
        map (fun f -> J.Float (non_integral f)) float;
        map (fun s -> J.Str s) string ]
  in
  sized
  @@ fix (fun self size ->
         if size <= 1 then leaf
         else
           let sub = self (size / 3) in
           frequency
             [ (2, leaf);
               (1, map (fun vs -> J.List vs) (list_size (int_bound 4) sub));
               ( 1,
                 map
                   (fun kvs -> J.Obj kvs)
                   (list_size (int_bound 4) (pair string sub)) ) ])

let qcheck_jsonv_roundtrip =
  QCheck.Test.make ~name:"parse_inverts_to_string" ~count:500
    (QCheck.make ~print:J.to_string jsonv_gen)
    (fun v -> J.parse (J.to_string v) = Ok v)

(* Telemetry keys are the only free text [to_json] writes: whatever bytes
   they hold, the line carries none below 0x20 and decodes to the same
   sample. *)
let qcheck_telemetry_keys_roundtrip =
  QCheck.Test.make ~name:"telemetry_keys_escaped_and_roundtrip"
    ~count:500
    QCheck.(small_list (pair string float))
    (fun kvs ->
      let sample = List.map (fun (k, v) -> (k, finite v)) kvs in
      let ev = Event.Telemetry { sample } in
      let line = Event.to_json ~round:3 ev in
      String.for_all (fun c -> Char.code c >= 0x20) line
      && Event.of_json_line line = Ok (3, ev))

(* Random events over the whole int range, [min_int] and [max_int]
   included, with empty and long station lists and arbitrary telemetry
   keys. [add_json] into a buffer that already holds bytes appends
   exactly [to_json]'s line, and that line decodes to the same event. *)
let event_gen =
  let open QCheck.Gen in
  let i =
    frequency
      [ (3, small_signed_int); (3, int); (1, return 0); (1, return min_int);
        (1, return max_int); (2, map (fun v -> -v) nat) ]
  in
  let stations = list_size (int_bound 100) i in
  oneof
    [ (fun st -> Event.Injected { id = i st; src = i st; dst = i st });
      map (fun station -> Event.Switched_on { station }) i;
      map (fun station -> Event.Switched_off { station }) i;
      map2 (fun station light -> Event.Transmit { station; light }) i bool;
      return Event.Silence;
      map (fun stations -> Event.Collision { stations }) stations;
      map3 (fun station bits light -> Event.Heard { station; bits; light })
        i i bool;
      (fun st ->
        Event.Delivered
          { id = i st; from_ = i st; dst = i st; delay = i st; hops = i st });
      (fun st ->
        Event.Relayed { id = i st; from_ = i st; relay = i st; dst = i st });
      map2 (fun id station -> Event.Stranded { id; station }) i i;
      map2 (fun on_count cap -> Event.Cap_exceeded { on_count; cap }) i i;
      map (fun stations -> Event.Adoption_conflict { stations }) stations;
      map (fun stations -> Event.Spurious_adoption { stations }) stations;
      map2 (fun on_count draining -> Event.Round_end { on_count; draining })
        i bool;
      map2 (fun station lost -> Event.Station_crashed { station; lost }) i i;
      map (fun station -> Event.Station_restarted { station }) i;
      map2
        (fun transmitters noise -> Event.Round_jammed { transmitters; noise })
        i bool;
      map
        (fun kvs ->
          Event.Telemetry
            { sample = List.map (fun (k, v) -> (k, finite v)) kvs })
        (small_list (pair string float)) ]
  |> triple string i

let qcheck_add_json_appends_to_json =
  QCheck.Test.make ~name:"add_json_appends_to_json_and_roundtrips"
    ~count:1000
    (QCheck.make
       ~print:(fun (prefix, round, ev) ->
         Printf.sprintf "%S + %s" prefix (Event.to_json ~round ev))
       event_gen)
    (fun (prefix, round, ev) ->
      let line = Event.to_json ~round ev in
      let buf = Buffer.create 16 in
      Buffer.add_string buf prefix;
      Event.add_json buf ~round ev;
      Buffer.contents buf = prefix ^ line
      && Event.of_json_line line = Ok (round, ev))

(* ---- sink combinators ---- *)

let test_tee_and_close () =
  let seen_a = ref 0 and seen_b = ref 0 in
  let closed = ref [] in
  let sink name seen =
    Mac_sim.Sink.make
      ~close:(fun () -> closed := name :: !closed)
      (fun ~round:_ _ -> incr seen)
  in
  let t = Mac_sim.Sink.tee [ sink "a" seen_a; sink "b" seen_b ] in
  t.emit ~round:0 Event.Silence;
  t.emit ~round:1 (Event.Switched_on { station = 0 });
  Mac_sim.Sink.close t;
  check_int "a saw both" 2 !seen_a;
  check_int "b saw both" 2 !seen_b;
  Alcotest.(check (list string)) "both closed, in order" [ "b"; "a" ] !closed

(* ---- replay: recorded JSONL -> metrics collector = live summary ---- *)

let record_run ~algorithm ~n ~k ~rate ~seed ~rounds ~drain =
  let path = Filename.temp_file "eear_replay" ".jsonl" in
  let sink = Mac_sim.Sink.jsonl_file path in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.of_float rate)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n ~seed)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      drain_limit = drain; sink = Some sink }
  in
  let summary =
    Fun.protect
      ~finally:(fun () -> Mac_sim.Sink.close sink)
      (fun () ->
        Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary ~rounds ())
  in
  let events = ref [] in
  let ic = open_in path in
  (try
     while true do
       match Event.of_json_line (input_line ic) with
       | Ok entry -> events := entry :: !events
       | Error msg -> Alcotest.failf "bad line in recording: %s" msg
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (summary, List.rev !events)

(* Each recording, replayed through a fresh collector, reconstructs its
   whole summary: an Orchestra run and a relaying Count-Hop run. *)
let test_metrics_replay_reconstructs_summary () =
  let rounds = 2_000 and drain = 1_000 in
  List.iter
    (fun (label, (summary, events)) ->
      check_bool (label ^ ": the run moved packets") true
        (summary.Mac_sim.Metrics.delivered > 0);
      let replay =
        Mac_sim.Metrics.create ~algorithm:summary.algorithm
          ~adversary:summary.adversary ~n:summary.n ~k:summary.k
          ~cap:summary.energy_cap
          ~sample_every:(max 1 ((rounds + drain) / 1024))
      in
      List.iter
        (fun (round, ev) -> Mac_sim.Metrics.observe replay ~round ev)
        events;
      let rebuilt =
        Mac_sim.Metrics.finalize replay
          ~final_round:(summary.rounds + summary.drain_rounds)
          ~max_queued_age:summary.max_queued_age
      in
      check_bool (label ^ ": whole summary reconstructed") true
        (rebuilt = summary))
    [ ( "orchestra",
        record_run ~algorithm:(module Mac_routing.Orchestra) ~n:6 ~k:3
          ~rate:0.9 ~seed:31 ~rounds ~drain );
      ( "count-hop",
        record_run ~algorithm:(module Mac_routing.Count_hop) ~n:6 ~k:2
          ~rate:0.7 ~seed:23 ~rounds ~drain ) ]

(* ---- per-station ledgers ---- *)

let test_ledger_invariants () =
  let n = 6 in
  let ledger = Mac_sim.Ledger.create ~n in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 4 5)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n ~seed:47)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:2_000) with
      drain_limit = 1_000; sink = Some (Mac_sim.Ledger.sink ledger) }
  in
  let s =
    Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop) ~n
      ~k:2 ~adversary ~rounds:2_000 ()
  in
  let sum f =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + f (Mac_sim.Ledger.station ledger i)
    done;
    !acc
  in
  check_int "ledger size" n (Mac_sim.Ledger.n ledger);
  check_int "on-rounds sum to station-rounds" s.station_rounds
    (sum (fun st -> st.Mac_sim.Ledger.on_rounds));
  check_int "injections booked per station" s.injected
    (sum (fun st -> st.Mac_sim.Ledger.injected));
  check_int "receipts sum to deliveries" s.delivered
    (sum (fun st -> st.Mac_sim.Ledger.received));
  check_int "adoptions sum to relay rounds" s.relay_rounds
    (sum (fun st -> st.Mac_sim.Ledger.relayed_in));
  check_int "reconstructed final backlog" s.final_total_queue
    (sum (fun st -> st.Mac_sim.Ledger.queue));
  for i = 0 to n - 1 do
    let st = Mac_sim.Ledger.station ledger i in
    check_bool "queue peak within global max" true
      (st.Mac_sim.Ledger.queue_peak <= s.max_station_queue);
    check_bool "collisions within transmits" true
      (st.Mac_sim.Ledger.collisions <= st.Mac_sim.Ledger.transmits)
  done;
  let report = Mac_sim.Ledger.report ledger in
  let rendered = Mac_sim.Report.to_string report in
  check_bool "report has a row per station" true
    (List.length (String.split_on_char '\n' (String.trim rendered)) >= n + 2)

(* ---- delay histogram ---- *)

let test_histogram_exact_below_16 () =
  let h = Mac_sim.Histogram.create () in
  List.iter (Mac_sim.Histogram.record h) [ 0; 1; 1; 5; 15 ];
  Alcotest.(check (list (pair (pair int int) int)))
    "width-1 buckets"
    [ ((0, 0), 1); ((1, 1), 2); ((5, 5), 1); ((15, 15), 1) ]
    (List.map (fun (lo, hi, c) -> ((lo, hi), c)) (Mac_sim.Histogram.buckets h))

let test_histogram_bounds_cover () =
  for v = 0 to 100_000 do
    let idx = Mac_sim.Histogram.bucket_of v in
    let lo, hi = Mac_sim.Histogram.bounds_of idx in
    if not (lo <= v && v <= hi) then
      Alcotest.failf "value %d outside bucket %d = [%d,%d]" v idx lo hi
  done

let test_histogram_percentile_known () =
  let h = Mac_sim.Histogram.create () in
  for v = 1 to 100 do
    Mac_sim.Histogram.record h v
  done;
  (* values 1..100: the rank-99 value is 99; buckets near 99 are ~6% wide *)
  let p99 = Mac_sim.Histogram.percentile h 0.99 in
  let lo, hi = Mac_sim.Histogram.bounds_of (Mac_sim.Histogram.bucket_of 99) in
  check_bool
    (Printf.sprintf "p99=%d within bucket [%d,%d]" p99 lo hi)
    true
    (lo <= p99 && p99 <= hi);
  let p50 = Mac_sim.Histogram.percentile h 0.5 in
  let lo50, hi50 = Mac_sim.Histogram.bounds_of (Mac_sim.Histogram.bucket_of 50) in
  check_bool "p50 within its bucket" true (lo50 <= p50 && p50 <= hi50)

(* The histogram percentile against the naive definition — sort, index at
   rank ceil(q*count): the reported value is the rank bucket's upper bound
   clamped to the recorded maximum, so it never undershoots the exact
   order statistic and never exceeds any recorded value. *)
let qcheck_percentile_vs_sorted =
  QCheck.Test.make ~name:"percentile_matches_naive_sort" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_range 0 5000))
        (int_range 1 100))
    (fun (values, qi) ->
      let q = float_of_int qi /. 100.0 in
      let h = Mac_sim.Histogram.create () in
      List.iter (Mac_sim.Histogram.record h) values;
      let sorted = List.sort compare values in
      let count = List.length values in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      let exact = List.nth sorted (rank - 1) in
      let maxv = List.fold_left max 0 values in
      let hi = snd (Mac_sim.Histogram.bounds_of (Mac_sim.Histogram.bucket_of exact)) in
      let reported = Mac_sim.Histogram.percentile h q in
      exact <= reported && reported = min hi maxv)

(* The acceptance bound: the summary's histogram p99 is within one bucket
   of the exact order statistic, measured on a real run by collecting the
   exact delays through a custom sink. *)
let test_p99_within_one_bucket_of_exact () =
  let delays = ref [] in
  let collector =
    Mac_sim.Sink.make (fun ~round:_ (ev : Event.t) ->
        match ev with
        | Delivered { delay; _ } -> delays := delay :: !delays
        | _ -> ())
  in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 9 10)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.uniform ~n:6 ~seed:59)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:20_000) with
      drain_limit = 10_000; sink = Some collector }
  in
  let s =
    Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop) ~n:6
      ~k:2 ~adversary ~rounds:20_000 ()
  in
  let sorted = List.sort compare !delays |> Array.of_list in
  let count = Array.length sorted in
  check_int "collector saw every delivery" s.delivered count;
  let rank = max 1 (min count (int_of_float (ceil (0.99 *. float_of_int count)))) in
  let exact = sorted.(rank - 1) in
  let b_exact = Mac_sim.Histogram.bucket_of exact in
  let b_reported = Mac_sim.Histogram.bucket_of s.p99_delay in
  check_bool
    (Printf.sprintf "p99 %d within one bucket of exact %d" s.p99_delay exact)
    true
    (abs (b_reported - b_exact) <= 1)

(* ---- observed runs do not disturb the simulation ---- *)

let test_observation_is_transparent () =
  let run sink =
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 7 10)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n:6 ~seed:71)
    in
    let config =
      { (Mac_sim.Engine.default_config ~rounds:1_500) with
        drain_limit = 500; sink }
    in
    Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Count_hop) ~n:6
      ~k:2 ~adversary ~rounds:1_500 ()
  in
  let bare = run None in
  let observed = run (Some Mac_sim.Sink.null) in
  check_bool "identical summaries" true (bare = observed)

(* Telemetry sampling reads but never writes engine state: the summary is
   identical with it on or off, and the recorded event stream differs only
   by the Telemetry events themselves — byte for byte. *)
let test_telemetry_is_transparent () =
  let run telemetry =
    let lines = ref [] in
    let sink =
      Mac_sim.Sink.make (fun ~round ev ->
          lines := Event.to_json ~round ev :: !lines)
    in
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 4 5)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n:6 ~seed:83)
    in
    let config =
      { (Mac_sim.Engine.default_config ~rounds:2_000) with
        drain_limit = 500; sink = Some sink; telemetry }
    in
    let s =
      Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Orchestra)
        ~n:6 ~k:3 ~adversary ~rounds:2_000 ()
    in
    (s, List.rev !lines)
  in
  let s_off, lines_off = run None in
  let probe = Mac_sim.Telemetry.probe ~every:500 (Mac_sim.Telemetry.create ()) in
  let s_on, lines_on = run (Some probe) in
  check_bool "identical summaries" true (s_off = s_on);
  let is_telemetry line =
    match Event.of_json_line line with
    | Ok (_, Event.Telemetry _) -> true
    | Ok _ -> false
    | Error msg -> Alcotest.failf "bad line %s: %s" line msg
  in
  let telemetry_lines = List.filter is_telemetry lines_on in
  check_bool "samples were emitted" true (telemetry_lines <> []);
  Alcotest.(check (list string))
    "stream identical after dropping telemetry events" lines_off
    (List.filter (fun l -> not (is_telemetry l)) lines_on)

(* ---- timeline ---- *)

let test_timeline_render () =
  let n = 5 in
  let tl = Mac_sim.Timeline.create ~rounds:64 ~n () in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 4 5)
      ~burst:(Mac_channel.Qrat.of_int 2)
      (Mac_adversary.Pattern.flood ~n ~victim:2)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds:40) with
      sink = Some (Mac_sim.Timeline.sink tl) }
  in
  ignore
    (Mac_sim.Engine.run ~config ~algorithm:(module Mac_routing.Orchestra) ~n
       ~k:3 ~adversary ~rounds:40 ());
  let out = Mac_sim.Timeline.render ~width:40 tl in
  let lines = String.split_on_char '\n' out in
  check_bool "legend first" true
    (match lines with l :: _ -> l = Mac_sim.Timeline.legend | [] -> false);
  check_bool "has a block header" true
    (List.exists
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "rounds")
       lines);
  List.iteri
    (fun i marker ->
      check_bool
        (Printf.sprintf "row for station %d" i)
        true
        (List.exists
           (fun l ->
             String.length l > String.length marker
             && String.sub (String.trim l) 0 (String.length marker) = marker)
           lines))
    (List.init n (fun i -> Printf.sprintf "s%d" i));
  check_bool "orchestra transmits appear" true (String.contains out 'T')

let test_timeline_window_keeps_tail () =
  let tl = Mac_sim.Timeline.create ~rounds:4 ~n:2 () in
  for r = 0 to 9 do
    Mac_sim.Timeline.feed tl ~round:r (Event.Transmit { station = 0; light = false });
    Mac_sim.Timeline.feed tl ~round:r (Event.Round_end { on_count = 1; draining = false })
  done;
  (* rounds 0..8 got flushed into a 4-slot ring (keeping 5..8); round 9 is
     the row still under assembly, so the window shown is 5..9 *)
  let out = Mac_sim.Timeline.render tl in
  check_bool "oldest rounds evicted, tail kept" true
    (List.exists (fun l -> l = "rounds 5..9")
       (String.split_on_char '\n' out))

let () =
  Alcotest.run "events"
    [ ("json",
       [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
         Alcotest.test_case "\\u escapes decode" `Quick
           test_unicode_escapes_decode;
         Alcotest.test_case "bad \\u escapes are typed errors" `Quick
           test_unicode_escape_errors_are_typed;
         QCheck_alcotest.to_alcotest qcheck_telemetry_keys_roundtrip;
         QCheck_alcotest.to_alcotest qcheck_add_json_appends_to_json ]);
      ("jsonv",
       [ Alcotest.test_case "roundtrip" `Quick test_jsonv_roundtrip;
         Alcotest.test_case "rejects malformed" `Quick
           test_jsonv_rejects_malformed;
         QCheck_alcotest.to_alcotest qcheck_jsonv_roundtrip;
         QCheck_alcotest.to_alcotest qcheck_decoders_total_on_strings;
         QCheck_alcotest.to_alcotest qcheck_decoders_total_on_edits ]);
      ("parsers",
       [ QCheck_alcotest.to_alcotest qcheck_file_parsers_total_on_strings;
         QCheck_alcotest.to_alcotest qcheck_file_parsers_total_on_edits ]);
      ("sinks",
       [ Alcotest.test_case "tee and close" `Quick test_tee_and_close ]);
      ("replay",
       [ Alcotest.test_case "metrics replay reconstructs summary" `Quick
           test_metrics_replay_reconstructs_summary;
         Alcotest.test_case "observation transparent" `Quick
           test_observation_is_transparent;
         Alcotest.test_case "telemetry transparent" `Quick
           test_telemetry_is_transparent ]);
      ("ledger", [ Alcotest.test_case "invariants" `Quick test_ledger_invariants ]);
      ("histogram",
       [ Alcotest.test_case "exact below 16" `Quick test_histogram_exact_below_16;
         Alcotest.test_case "bounds cover" `Quick test_histogram_bounds_cover;
         Alcotest.test_case "percentiles in bucket" `Quick
           test_histogram_percentile_known;
         Alcotest.test_case "p99 within one bucket" `Quick
           test_p99_within_one_bucket_of_exact;
         QCheck_alcotest.to_alcotest qcheck_percentile_vs_sorted ]);
      ("timeline",
       [ Alcotest.test_case "render" `Quick test_timeline_render;
         Alcotest.test_case "window keeps tail" `Quick
           test_timeline_window_keeps_tail ]) ]
