let columns =
  [ "algorithm"; "adversary"; "n"; "k"; "rounds"; "drain_rounds"; "injected";
    "delivered"; "undelivered"; "max_delay"; "mean_delay"; "p99_delay";
    "max_queued_age"; "max_total_queue"; "final_total_queue";
    "max_station_queue"; "energy_cap"; "max_on"; "mean_on"; "station_rounds";
    "silent_rounds"; "light_rounds"; "delivery_rounds"; "relay_rounds";
    "collision_rounds"; "max_hops"; "control_bits_total"; "control_bits_max";
    "cap_exceeded"; "stranded"; "adoption_conflicts"; "spurious_adoptions";
    "crashes"; "restarts"; "jammed_rounds"; "noise_rounds"; "lost_to_crash";
    "last_fault_round"; "pre_fault_queue"; "post_fault_peak_queue";
    "recovery_rounds" ]

let csv_header = String.concat "," columns

(* Non-finite floats have no JSON representation ("%.6g" would emit the
   invalid tokens [nan] or [inf]) and no meaningful table cell; JSON gets
   [null], CSV/table cells get "-". Mean delay is nan-free today (finalize
   maps zero deliveries to 0.0) but energy-per-delivery is genuinely nan on
   zero-delivery runs, and both emitters must stay safe under refactors. *)
let finite_or float_repr fallback v =
  if Float.is_finite v then float_repr v else fallback

let csv_float v = finite_or (Printf.sprintf "%.6g") "-" v
let json_float v = finite_or (Printf.sprintf "%.6g") "null" v

(* CSV-quote a field only when necessary. *)
let quote field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let cells (s : Metrics.summary) =
  [ quote s.algorithm; quote s.adversary; string_of_int s.n; string_of_int s.k;
    string_of_int s.rounds; string_of_int s.drain_rounds;
    string_of_int s.injected; string_of_int s.delivered;
    string_of_int s.undelivered; string_of_int s.max_delay;
    csv_float s.mean_delay; string_of_int s.p99_delay;
    string_of_int s.max_queued_age; string_of_int s.max_total_queue;
    string_of_int s.final_total_queue; string_of_int s.max_station_queue;
    string_of_int s.energy_cap; string_of_int s.max_on;
    csv_float s.mean_on; string_of_int s.station_rounds;
    string_of_int s.silent_rounds; string_of_int s.light_rounds;
    string_of_int s.delivery_rounds; string_of_int s.relay_rounds;
    string_of_int s.collision_rounds; string_of_int s.max_hops;
    string_of_int s.control_bits_total; string_of_int s.control_bits_max;
    string_of_int s.violations.cap_exceeded; string_of_int s.violations.stranded;
    string_of_int s.violations.adoption_conflicts;
    string_of_int s.violations.spurious_adoptions;
    string_of_int s.faults.crashes; string_of_int s.faults.restarts;
    string_of_int s.faults.jammed_rounds; string_of_int s.faults.noise_rounds;
    string_of_int s.faults.lost_to_crash;
    string_of_int s.faults.last_fault_round;
    string_of_int s.faults.pre_fault_queue;
    string_of_int s.faults.post_fault_peak_queue;
    string_of_int s.faults.recovery_rounds ]

let summary_csv_row s = String.concat "," (cells s)

let summaries_csv summaries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (summary_csv_row s);
      Buffer.add_char buf '\n')
    summaries;
  Buffer.contents buf

let series_csv (s : Metrics.summary) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "round,total_queued\n";
  Array.iter
    (fun (r, q) -> Buffer.add_string buf (Printf.sprintf "%d,%d\n" r q))
    s.queue_series;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  Mac_channel.Jsonv.escape buf s;
  Buffer.contents buf

let summary_json (s : Metrics.summary) =
  let field name value = Printf.sprintf "%S: %s" name value in
  let str name value = field name (Printf.sprintf "\"%s\"" (json_escape value)) in
  let int name value = field name (string_of_int value) in
  let float name value = field name (json_float value) in
  let fields =
    [ str "algorithm" s.algorithm; str "adversary" s.adversary; int "n" s.n;
      int "k" s.k; int "rounds" s.rounds; int "drain_rounds" s.drain_rounds;
      int "injected" s.injected; int "delivered" s.delivered;
      int "undelivered" s.undelivered; int "max_delay" s.max_delay;
      float "mean_delay" s.mean_delay; int "p99_delay" s.p99_delay;
      int "max_queued_age" s.max_queued_age;
      int "max_total_queue" s.max_total_queue;
      int "final_total_queue" s.final_total_queue;
      int "max_station_queue" s.max_station_queue;
      int "energy_cap" s.energy_cap; int "max_on" s.max_on;
      float "mean_on" s.mean_on; int "station_rounds" s.station_rounds;
      int "silent_rounds" s.silent_rounds; int "light_rounds" s.light_rounds;
      int "delivery_rounds" s.delivery_rounds; int "relay_rounds" s.relay_rounds;
      int "collision_rounds" s.collision_rounds; int "max_hops" s.max_hops;
      int "control_bits_total" s.control_bits_total;
      int "control_bits_max" s.control_bits_max;
      field "delay_histogram"
        ("["
        ^ String.concat ", "
            (Array.to_list
               (Array.map
                  (fun (lo, hi, count) -> Printf.sprintf "[%d, %d, %d]" lo hi count)
                  s.delay_histogram))
        ^ "]");
      Printf.sprintf
        "\"violations\": {%s, %s, %s, %s}"
        (int "cap_exceeded" s.violations.cap_exceeded)
        (int "stranded" s.violations.stranded)
        (int "adoption_conflicts" s.violations.adoption_conflicts)
        (int "spurious_adoptions" s.violations.spurious_adoptions);
      Printf.sprintf
        "\"faults\": {%s, %s, %s, %s, %s, %s, %s, %s, %s}"
        (int "crashes" s.faults.crashes)
        (int "restarts" s.faults.restarts)
        (int "jammed_rounds" s.faults.jammed_rounds)
        (int "noise_rounds" s.faults.noise_rounds)
        (int "lost_to_crash" s.faults.lost_to_crash)
        (int "last_fault_round" s.faults.last_fault_round)
        (int "pre_fault_queue" s.faults.pre_fault_queue)
        (int "post_fault_peak_queue" s.faults.post_fault_peak_queue)
        (int "recovery_rounds" s.faults.recovery_rounds) ]
  in
  "{" ^ String.concat ", " fields ^ "}"
