let csv_header =
  String.concat "," (List.map (fun (f : Metrics.field) -> f.name) Metrics.fields)

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

let csv_cell : Metrics.value -> string = function
  | Str s -> quote s
  | Int i -> string_of_int i
  | Float x -> csv_float x

let summary_csv_row s =
  String.concat ","
    (List.map (fun (f : Metrics.field) -> csv_cell (f.read s)) Metrics.fields)

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

let json_value : Metrics.value -> string = function
  | Str s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float x -> json_float x

let summary_json (s : Metrics.summary) =
  let member name value = Printf.sprintf "%S: %s" name value in
  let obj members = "{" ^ String.concat ", " members ^ "}" in
  let group g =
    List.filter_map
      (fun (f : Metrics.field) ->
        if f.group = g then Some (member f.name (json_value (f.read s)))
        else None)
      Metrics.fields
  in
  let bucket (lo, hi, count) = Printf.sprintf "[%d, %d, %d]" lo hi count in
  obj
    (group Top
    @ [ member "delay_histogram"
          ("["
          ^ String.concat ", " (Array.to_list (Array.map bucket s.delay_histogram))
          ^ "]");
        member "violations" (obj (group Violations));
        member "faults" (obj (group Faults)) ])
