(* A small metrics registry in the Prometheus mold: named, labelled
   counters, gauges and log-bucketed histograms, populated live by the
   engine and rendered to a text exposition. Registries from concurrent
   scenario runs merge exactly (counter sums, gauge sum/max policies,
   bucket-wise histogram sums), which is what the fleet aggregation in
   [Fleet] builds on. No external dependencies: rendering is a Buffer,
   atomicity is tmp-file + rename. *)

type merge = Sum | Max

type counter = int ref

type gauge = { mutable g : float; g_merge : merge }

type data =
  | Counter of counter
  | Gauge of gauge
  | Hist of Histogram.t

type metric = {
  name : string;
  help : string;
  mlabels : (string * string) list;
  data : data;
}

type t = {
  base_labels : (string * string) list;
  mutable metrics : metric list; (* reverse registration order *)
}

let create ?(labels = []) () = { base_labels = labels; metrics = [] }

let base_labels t = t.base_labels

let find t name mlabels =
  List.find_opt (fun m -> m.name = name && m.mlabels = mlabels) t.metrics

let kind_error name =
  invalid_arg
    (Printf.sprintf "Telemetry: %s already registered with a different kind"
       name)

let counter t ?(help = "") ?(labels = []) name =
  match find t name labels with
  | Some { data = Counter c; _ } -> c
  | Some _ -> kind_error name
  | None ->
    let c = ref 0 in
    t.metrics <- { name; help; mlabels = labels; data = Counter c } :: t.metrics;
    c

let inc c = incr c
let add c n = c := !c + n
let set_counter c v = c := v
let counter_value c = !c

let gauge t ?(help = "") ?(labels = []) ?(merge = Sum) name =
  match find t name labels with
  | Some { data = Gauge g; _ } -> g
  | Some _ -> kind_error name
  | None ->
    let g = { g = 0.0; g_merge = merge } in
    t.metrics <- { name; help; mlabels = labels; data = Gauge g } :: t.metrics;
    g

let set_gauge g v = g.g <- v
let gauge_value g = g.g

let register_histogram t ?(help = "") ?(labels = []) name h =
  match find t name labels with
  | Some { data = Hist h'; _ } -> h'
  | Some _ -> kind_error name
  | None ->
    t.metrics <- { name; help; mlabels = labels; data = Hist h } :: t.metrics;
    h

let histogram t ?help ?labels name =
  register_histogram t ?help ?labels name (Histogram.create ())

(* ---- snapshots ---- *)

let sample_name m =
  if m.mlabels = [] then m.name
  else
    m.name ^ "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ v ^ "\"") m.mlabels)
    ^ "}"

let sample t =
  List.filter_map
    (fun m ->
      match m.data with
      | Counter c -> Some (sample_name m, float_of_int !c)
      | Gauge g -> Some (sample_name m, g.g)
      | Hist _ -> None)
    (List.rev t.metrics)

let find_sample sample name = List.assoc_opt name sample

(* ---- exact merge ---- *)

let merge_into ~into src =
  List.iter
    (fun m ->
      match find into m.name m.mlabels with
      | Some m' ->
        (match (m.data, m'.data) with
         | Counter c, Counter c' -> c' := !c' + !c
         | Gauge g, Gauge g' ->
           (match g'.g_merge with
            | Sum -> g'.g <- g'.g +. g.g
            | Max -> if g.g > g'.g then g'.g <- g.g)
         | Hist h, Hist h' -> Histogram.merge_into ~into:h' h
         | _ -> kind_error m.name)
      | None ->
        let data =
          match m.data with
          | Counter c -> Counter (ref !c)
          | Gauge g -> Gauge { g = g.g; g_merge = g.g_merge }
          | Hist h -> Hist (Histogram.copy h)
        in
        into.metrics <- { m with data } :: into.metrics)
    (List.rev src.metrics)

(* ---- Prometheus-style text exposition ---- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let format_value f =
  if f <> f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let quantiles = [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ]

let render t =
  let buf = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  let header name help typ =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      if help <> "" then begin
        Buffer.add_string buf "# HELP ";
        Buffer.add_string buf name;
        Buffer.add_char buf ' ';
        Buffer.add_string buf help;
        Buffer.add_char buf '\n'
      end;
      Buffer.add_string buf "# TYPE ";
      Buffer.add_string buf name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf typ;
      Buffer.add_char buf '\n'
    end
  in
  let labels ?(extra = []) m =
    let all = t.base_labels @ m.mlabels @ extra in
    if all <> [] then begin
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label v);
          Buffer.add_char buf '"')
        all;
      Buffer.add_char buf '}'
    end
  in
  let line ?extra ?(suffix = "") m value =
    Buffer.add_string buf m.name;
    Buffer.add_string buf suffix;
    labels ?extra m;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun m ->
      match m.data with
      | Counter c ->
        header m.name m.help "counter";
        line m (format_value (float_of_int !c))
      | Gauge g ->
        header m.name m.help "gauge";
        line m (format_value g.g)
      | Hist h ->
        header m.name m.help "summary";
        List.iter
          (fun (qs, q) ->
            line ~extra:[ ("quantile", qs) ] m
              (string_of_int (Histogram.percentile h q)))
          quantiles;
        line ~suffix:"_count" m (string_of_int (Histogram.count h)))
    (List.rev t.metrics);
  Buffer.contents buf

(* Atomic and durable (tmp + fsync + rename): a crash right after the
   rename must not leave an empty exposition where a full one stood. *)
let write_atomic ~path content = Durable.write_string ~path content

(* ---- exposition parsing (for [routing_sim top] and CI validation) ---- *)

exception Parse of string

let parse_line line =
  let len = String.length line in
  let pos = ref 0 in
  let name_char c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  while !pos < len && name_char line.[!pos] do
    incr pos
  done;
  if !pos = 0 then raise (Parse "expected metric name");
  let name = String.sub line 0 !pos in
  let labels = ref [] in
  if !pos < len && line.[!pos] = '{' then begin
    incr pos;
    let parse_label () =
      let start = !pos in
      while !pos < len && line.[!pos] <> '=' do
        incr pos
      done;
      if !pos >= len then raise (Parse "label without '='");
      let key = String.trim (String.sub line start (!pos - start)) in
      incr pos;
      if !pos >= len || line.[!pos] <> '"' then
        raise (Parse "label value not quoted");
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then raise (Parse "unterminated label value");
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= len then raise (Parse "dangling escape");
          (match line.[!pos] with
           | 'n' -> Buffer.add_char buf '\n'
           | c -> Buffer.add_char buf c);
          incr pos;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
      in
      go ();
      labels := (key, Buffer.contents buf) :: !labels
    in
    if !pos < len && line.[!pos] = '}' then incr pos
    else begin
      parse_label ();
      while !pos < len && line.[!pos] = ',' do
        incr pos;
        parse_label ()
      done;
      if !pos >= len || line.[!pos] <> '}' then
        raise (Parse "expected '}' after labels");
      incr pos
    end
  end;
  while !pos < len && (line.[!pos] = ' ' || line.[!pos] = '\t') do
    incr pos
  done;
  let v = String.trim (String.sub line !pos (len - !pos)) in
  match float_of_string_opt v with
  | Some f -> (name, List.rev !labels, f)
  | None -> raise (Parse (Printf.sprintf "bad value %S" v))

let parse_exposition text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
      else begin
        match parse_line trimmed with
        | entry -> go (entry :: acc) (lineno + 1) rest
        | exception Parse msg ->
          Error (Printf.sprintf "line %d: %s" lineno msg)
      end
  in
  go [] 1 lines

(* ---- metric-name vocabulary ----

   One place for every name the engine publishes, so the CLI progress
   line, [routing_sim top] and tests agree with the engine without
   stringly-typed drift. *)

module Names = struct
  let round = "eear_round"
  let rounds_target = "eear_rounds_target"
  let rounds_per_second = "eear_rounds_per_second"
  let backlog = "eear_backlog_packets"
  let backlog_peak = "eear_backlog_peak_packets"
  let station_queue_peak = "eear_station_queue_peak_packets"
  let bucket_tokens = "eear_bucket_tokens"
  let crashed_stations = "eear_crashed_stations"
  let energy_window = "eear_energy_window_station_rounds"
  let energy_total = "eear_energy_station_rounds_total"
  let injected_total = "eear_injected_total"
  let delivered_total = "eear_delivered_total"
  let collisions_total = "eear_collision_rounds_total"
  let jams_total = "eear_jammed_rounds_total"
  let lost_total = "eear_lost_packets_total"
  let checkpoints_total = "eear_checkpoints_total"
  let samples_total = "eear_telemetry_samples_total"
  let gc_minor_words_per_round = "eear_gc_minor_words_per_round"
  let gc_heap_words = "eear_gc_heap_words"
  let gc_major_collections_total = "eear_gc_major_collections_total"
  let delay = "eear_delay_rounds"
  let phase_ns = "eear_phase_ns"
  let scenarios_started = "eear_scenarios_started_total"
  let scenarios_completed = "eear_scenarios_completed_total"
  let scenarios_cached = "eear_scenarios_cached_total"
  let bisect_probes = "eear_bisect_probes_total"
end

(* ---- engine attachment ---- *)

type probe = {
  registry : t;
  every : int;
  on_sample : round:int -> t -> unit;
}

let probe ?(every = 1000) ?(on_sample = fun ~round:_ _ -> ()) registry =
  { registry; every = max 1 every; on_sample }

(* ---- fleet aggregation ---- *)

type registry = t

let new_registry = create

module Fleet = struct
  type nonrec probe = probe

  type fleet = {
    dir : string option;
    fleet_every : int;
    lock : Mutex.t;
    agg : registry;
    started : counter;
    completed : counter;
    cached : counter;
    seen : (string, unit) Hashtbl.t;  (* ids counted in [started] *)
  }

  type t = fleet

  let rec mkdirs d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end

  let create ?dir ?(every = 1000) () =
    Option.iter mkdirs dir;
    let agg = new_registry () in
    { dir; fleet_every = max 1 every; lock = Mutex.create (); agg;
      started =
        counter agg ~help:"Scenario runs started." Names.scenarios_started;
      completed =
        counter agg ~help:"Scenario runs completed." Names.scenarios_completed;
      cached =
        counter agg ~help:"Scenario runs served from the result cache."
          Names.scenarios_cached;
      seen = Hashtbl.create 64 }

  let aggregate fleet = fleet.agg
  let dir fleet = fleet.dir

  let scenario_path fleet id =
    Option.map
      (fun d -> Filename.concat d (Durable.file_stem id ^ ".prom"))
      fleet.dir

  let fleet_path fleet =
    Option.map (fun d -> Filename.concat d "fleet.prom") fleet.dir

  let write_scenario fleet ~id reg =
    match scenario_path fleet id with
    | Some path -> write_atomic ~path (render reg)
    | None -> ()

  (* Callers hold [lock]. *)
  let write_fleet fleet =
    match fleet_path fleet with
    | Some path -> write_atomic ~path (render fleet.agg)
    | None -> ()

  let locked fleet f =
    Mutex.lock fleet.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock fleet.lock) f

  let probe fleet ~id =
    locked fleet (fun () ->
        if not (Hashtbl.mem fleet.seen id) then begin
          Hashtbl.add fleet.seen id ();
          incr fleet.started
        end);
    let reg = new_registry ~labels:[ ("scenario", id) ] () in
    probe ~every:fleet.fleet_every
      ~on_sample:(fun ~round:_ reg -> write_scenario fleet ~id reg)
      reg

  let finish fleet (p : probe) =
    let id =
      Option.value
        (List.assoc_opt "scenario" (base_labels p.registry))
        ~default:"unknown"
    in
    write_scenario fleet ~id p.registry;
    locked fleet (fun () ->
        merge_into ~into:fleet.agg p.registry;
        incr fleet.completed;
        write_fleet fleet)

  let note_cached fleet ~id:_ =
    locked fleet (fun () ->
        incr fleet.cached;
        write_fleet fleet)

  let add_counter fleet ?(help = "") ?(by = 1) name =
    locked fleet (fun () ->
        let c = counter fleet.agg ~help name in
        c := !c + by;
        write_fleet fleet)
end
