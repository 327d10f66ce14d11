type t =
  | Injected of { id : int; src : int; dst : int }
  | Switched_on of { station : int }
  | Switched_off of { station : int }
  | Transmit of { station : int; light : bool }
  | Silence
  | Collision of { stations : int list }
  | Heard of { station : int; bits : int; light : bool }
  | Delivered of { id : int; from_ : int; dst : int; delay : int; hops : int }
  | Relayed of { id : int; from_ : int; relay : int; dst : int }
  | Stranded of { id : int; station : int }
  | Cap_exceeded of { on_count : int; cap : int }
  | Adoption_conflict of { stations : int list }
  | Spurious_adoption of { stations : int list }
  | Round_end of { on_count : int; draining : bool }
  | Station_crashed of { station : int; lost : int }
  | Station_restarted of { station : int }
  | Round_jammed of { transmitters : int; noise : bool }
  | Telemetry of { sample : (string * float) list }

let notable = function
  | Injected _ | Collision _ | Delivered _ | Relayed _ | Stranded _
  | Cap_exceeded _ | Adoption_conflict _ | Spurious_adoption _
  | Station_crashed _ | Station_restarted _ | Round_jammed _ ->
    true
  | Heard { light; _ } -> light
  | Switched_on _ | Switched_off _ | Transmit _ | Silence | Round_end _
  | Telemetry _ ->
    false

let stations_string stations =
  String.concat "," (List.map string_of_int stations)

let to_string = function
  | Injected { id; src; dst } -> Printf.sprintf "inject #%d %d->%d" id src dst
  | Switched_on { station } -> Printf.sprintf "on %d" station
  | Switched_off { station } -> Printf.sprintf "off %d" station
  | Transmit { station; light } ->
    Printf.sprintf "transmit %d%s" station (if light then " (light)" else "")
  | Silence -> "silence"
  | Collision { stations } ->
    Printf.sprintf "collision (%d transmitters)" (List.length stations)
  | Heard { station; bits; light } ->
    if light then Printf.sprintf "light message from %d" station
    else Printf.sprintf "heard from %d (%d control bits)" station bits
  | Delivered { id; from_; dst; delay; hops } ->
    Printf.sprintf "deliver #%d %d->%d (delay %d, hop %d)" id from_ dst delay
      hops
  | Relayed { id; from_; relay; dst } ->
    Printf.sprintf "relay #%d %d->(%d) dst %d" id from_ relay dst
  | Stranded { id; station } -> Printf.sprintf "stranded #%d at %d" id station
  | Cap_exceeded { on_count; cap } ->
    Printf.sprintf "cap exceeded (%d on, cap %d)" on_count cap
  | Adoption_conflict { stations } ->
    Printf.sprintf "adoption conflict (%s)" (stations_string stations)
  | Spurious_adoption { stations } ->
    Printf.sprintf "spurious adoption (%s)" (stations_string stations)
  | Round_end { on_count; draining } ->
    Printf.sprintf "round end (%d on%s)" on_count
      (if draining then ", draining" else "")
  | Station_crashed { station; lost } ->
    Printf.sprintf "crash %d (%d packets lost)" station lost
  | Station_restarted { station } -> Printf.sprintf "restart %d" station
  | Round_jammed { transmitters; noise } ->
    Printf.sprintf "%s (%d transmitters)"
      (if noise then "noise" else "jammed")
      transmitters
  | Telemetry { sample } ->
    Printf.sprintf "telemetry (%d metrics)" (List.length sample)

(* ---- JSON encoding ---- *)

(* Decimal digits of [v <= 0] without the sign, most significant first.
   Working on the non-positive side covers [min_int], whose negation
   overflows; [v mod 10] lies in [-9, 0] there. *)
let rec add_neg_digits buf v =
  if v <= -10 then add_neg_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (v mod 10)))

(* [string_of_int]'s bytes, written without making the string. *)
let add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf v
  end
  else add_neg_digits buf (-v)

let add_key buf name =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":"

let int_field buf name v =
  add_key buf name;
  add_int buf v

let bool_field buf name v =
  add_key buf name;
  Buffer.add_string buf (if v then "true" else "false")

(* A plain recursion: [List.iteri] would allocate its closure per list. *)
let rec add_ints buf ~comma = function
  | [] -> ()
  | v :: rest ->
    if comma then Buffer.add_char buf ',';
    add_int buf v;
    add_ints buf ~comma:true rest

let ints_field buf name vs =
  add_key buf name;
  Buffer.add_char buf '[';
  add_ints buf ~comma:false vs;
  Buffer.add_char buf ']'

let typ buf name =
  Buffer.add_string buf ",\"type\":\"";
  Buffer.add_string buf name;
  Buffer.add_char buf '"'

let add_json buf ~round ev =
  Buffer.add_string buf "{\"round\":";
  add_int buf round;
  (match ev with
   | Injected { id; src; dst } ->
     typ buf "injected";
     int_field buf "id" id;
     int_field buf "src" src;
     int_field buf "dst" dst
   | Switched_on { station } ->
     typ buf "switched_on";
     int_field buf "station" station
   | Switched_off { station } ->
     typ buf "switched_off";
     int_field buf "station" station
   | Transmit { station; light } ->
     typ buf "transmit";
     int_field buf "station" station;
     bool_field buf "light" light
   | Silence -> typ buf "silence"
   | Collision { stations } ->
     typ buf "collision";
     ints_field buf "stations" stations
   | Heard { station; bits; light } ->
     typ buf "heard";
     int_field buf "station" station;
     int_field buf "bits" bits;
     bool_field buf "light" light
   | Delivered { id; from_; dst; delay; hops } ->
     typ buf "delivered";
     int_field buf "id" id;
     int_field buf "from" from_;
     int_field buf "dst" dst;
     int_field buf "delay" delay;
     int_field buf "hops" hops
   | Relayed { id; from_; relay; dst } ->
     typ buf "relayed";
     int_field buf "id" id;
     int_field buf "from" from_;
     int_field buf "relay" relay;
     int_field buf "dst" dst
   | Stranded { id; station } ->
     typ buf "stranded";
     int_field buf "id" id;
     int_field buf "station" station
   | Cap_exceeded { on_count; cap } ->
     typ buf "cap_exceeded";
     int_field buf "on" on_count;
     int_field buf "cap" cap
   | Adoption_conflict { stations } ->
     typ buf "adoption_conflict";
     ints_field buf "stations" stations
   | Spurious_adoption { stations } ->
     typ buf "spurious_adoption";
     ints_field buf "stations" stations
   | Round_end { on_count; draining } ->
     typ buf "round_end";
     int_field buf "on" on_count;
     bool_field buf "draining" draining
   | Station_crashed { station; lost } ->
     typ buf "station_crashed";
     int_field buf "station" station;
     int_field buf "lost" lost
   | Station_restarted { station } ->
     typ buf "station_restarted";
     int_field buf "station" station
   | Round_jammed { transmitters; noise } ->
     typ buf "round_jammed";
     int_field buf "transmitters" transmitters;
     bool_field buf "noise" noise
   | Telemetry { sample } ->
     typ buf "telemetry";
     Buffer.add_string buf ",\"sample\":{";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_char buf '"';
         Jsonv.escape buf k;
         Buffer.add_string buf "\":";
         Jsonv.add_float buf v)
       sample;
     Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_json ~round ev =
  let buf = Buffer.create 96 in
  add_json buf ~round ev;
  Buffer.contents buf

(* ---- JSON decoding ---- *)

(* Every line [to_json] writes starts with {"round":N, so the round of a
   line is a prefix scan: readers of whole journals skip the decode. *)
let round_of_line line =
  let prefix = "{\"round\":" in
  let pl = String.length prefix in
  if not (String.starts_with ~prefix line) then None
  else begin
    let i = ref pl in
    let len = String.length line in
    while
      !i < len && match line.[!i] with '0' .. '9' -> true | _ -> false
    do
      incr i
    done;
    if !i = pl then None else int_of_string_opt (String.sub line pl (!i - pl))
  end

(* A strict field decoder over [Jsonv.parse]: every field must have the
   type [to_json] writes (an int is an [Int], never an integral float).
   Fields [to_json] does not write are ignored. *)
let of_json_line line =
  match Jsonv.parse line with
  | Error msg -> Error msg
  | Ok (Jsonv.Obj fields) -> (
    let fail name what = failwith (Printf.sprintf "%s: not %s" name what) in
    let get name =
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> failwith ("missing field " ^ name)
    in
    let int_of name = function Jsonv.Int i -> i | _ -> fail name "an int" in
    let int name = int_of name (get name) in
    let bool name =
      match get name with Jsonv.Bool b -> b | _ -> fail name "a bool"
    in
    let str name =
      match get name with Jsonv.Str s -> s | _ -> fail name "a string"
    in
    let ints name =
      match get name with
      | Jsonv.List vs -> List.map (int_of name) vs
      | _ -> fail name "an int array"
    in
    let sample () =
      let number = function
        | Jsonv.Int i -> float_of_int i
        | Jsonv.Float f -> f
        | _ -> fail "sample" "an object of numbers"
      in
      match get "sample" with
      | Jsonv.Obj kvs -> List.map (fun (k, v) -> (k, number v)) kvs
      | _ -> fail "sample" "an object of numbers"
    in
    try
      let round = int "round" in
      let ev =
        match str "type" with
        | "injected" ->
          Injected { id = int "id"; src = int "src"; dst = int "dst" }
        | "switched_on" -> Switched_on { station = int "station" }
        | "switched_off" -> Switched_off { station = int "station" }
        | "transmit" ->
          Transmit { station = int "station"; light = bool "light" }
        | "silence" -> Silence
        | "collision" -> Collision { stations = ints "stations" }
        | "heard" ->
          Heard
            { station = int "station"; bits = int "bits"; light = bool "light" }
        | "delivered" ->
          Delivered
            { id = int "id"; from_ = int "from"; dst = int "dst";
              delay = int "delay"; hops = int "hops" }
        | "relayed" ->
          Relayed
            { id = int "id"; from_ = int "from"; relay = int "relay";
              dst = int "dst" }
        | "stranded" -> Stranded { id = int "id"; station = int "station" }
        | "cap_exceeded" ->
          Cap_exceeded { on_count = int "on"; cap = int "cap" }
        | "adoption_conflict" ->
          Adoption_conflict { stations = ints "stations" }
        | "spurious_adoption" ->
          Spurious_adoption { stations = ints "stations" }
        | "round_end" ->
          Round_end { on_count = int "on"; draining = bool "draining" }
        | "station_crashed" ->
          Station_crashed { station = int "station"; lost = int "lost" }
        | "station_restarted" -> Station_restarted { station = int "station" }
        | "round_jammed" ->
          Round_jammed
            { transmitters = int "transmitters"; noise = bool "noise" }
        | "telemetry" -> Telemetry { sample = sample () }
        | other -> failwith ("unknown event type " ^ other)
      in
      Ok (round, ev)
    with Failure msg -> Error msg)
  | Ok _ -> Error "not a JSON object"
