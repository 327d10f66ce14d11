(** Machine-readable export of run results (CSV and JSON).

    The simulator is often driven from notebooks or scripts; these writers
    serialise {!Metrics.summary} values without any external dependency.
    The CSV columns and the JSON members are {!Metrics.fields}, in table
    order: [summaries_csv] emits one row per run (header included);
    [series_csv] emits the sampled queue trajectory; [summary_json] a
    single JSON object (flat, no nesting beyond the [violations] and
    [faults] sub-objects). String values are CSV-quoted when needed and
    JSON-escaped; floats go through {!csv_float} and {!json_float}; ints
    are never quoted. *)

val csv_header : string
(** The {!Metrics.fields} names, comma-separated. *)

val summary_csv_row : Metrics.summary -> string
(** One CSV row, no newline; the columns of {!csv_header}. *)

val summaries_csv : Metrics.summary list -> string
(** Header plus one row per summary, newline-terminated. *)

val series_csv : Metrics.summary -> string
(** "round,total_queued" rows for the sampled series. *)

val summary_json : Metrics.summary -> string
(** One JSON object on one line: the top-level fields, then [delay_histogram]
    (an array of [[lo, hi, count]] bucket triples, see
    {!Histogram.buckets}), then the [violations] and [faults] objects.
    Keys are written with ["%S"] and members are separated by [", "]. *)

val csv_float : float -> string
(** ["%.6g"], except non-finite values render as ["-"]. *)

val json_float : float -> string
(** ["%.6g"], except non-finite values render as ["null"] — ["%.6g"] alone
    would emit [nan]/[inf], which are invalid JSON tokens. *)

val json_escape : string -> string
(** {!Mac_channel.Jsonv.escape} into a fresh string: the inside of a JSON
    string literal. *)
