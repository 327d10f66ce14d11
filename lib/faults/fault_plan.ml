type queue_policy = Retain | Drop

type action =
  | Crash of { station : int; queue : queue_policy }
  | Restart of { station : int }
  | Jam
  | Noise

type t = {
  name : string;
  by_round : (int, action list) Hashtbl.t;
      (* round -> crashes and restarts in application order *)
  points : (int * int) array; (* [(r, r)] per crash/restart round *)
  jam : (int * int) array; (* [lo, hi] jam ranges, merged *)
  noise : (int * int) array; (* the same for noise *)
  size : int;
  max_station : int;
}

let empty =
  { name = "none"; by_round = Hashtbl.create 1; points = [||]; jam = [||];
    noise = [||]; size = 0; max_station = -1 }

let is_empty t = t.size = 0
let name t = t.name
let size t = t.size
let max_station t = t.max_station

let for_stations ~n t =
  if t.max_station < n then Ok t
  else
    Error
      (Printf.sprintf "fault plan %s names station %d, but n = %d" t.name
         t.max_station n)

(* Binary search: the first of the ascending, disjoint [spans] that ends
   at or after [round]. *)
let first_from spans round =
  let lo = ref 0 and hi = ref (Array.length spans) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snd spans.(mid) < round then lo := mid + 1 else hi := mid
  done;
  !lo

let covers spans round =
  let i = first_from spans round in
  i < Array.length spans && fst spans.(i) <= round

(* Jam and noise are idempotent flags, so they follow the round's crashes
   and restarts whatever order the script gave them in. *)
let actions t ~round =
  let points =
    match Hashtbl.find_opt t.by_round round with Some l -> l | None -> []
  in
  let noise = if covers t.noise round then [ Noise ] else [] in
  match if covers t.jam round then Jam :: noise else noise with
  | [] -> points
  | flags -> points @ flags

let next_action_round t ~round =
  List.fold_left
    (fun acc spans ->
      let i = first_from spans round in
      if i = Array.length spans then acc
      else
        let r = max round (fst spans.(i)) in
        match acc with Some a when a <= r -> acc | _ -> Some r)
    None [ t.points; t.jam; t.noise ]

(* [entries] are [(lo, hi, action)]: a crash or restart at [lo = hi], or
   a jam or noise range. [size] counts every round of every entry. *)
let build ~name entries =
  let by_round = Hashtbl.create 64 in
  let max_station = ref (-1) and size = ref 0 in
  List.iter
    (fun (lo, hi, action) ->
      if lo < 0 then invalid_arg "Fault_plan: negative round";
      size := !size + (hi - lo + 1);
      match action with
      | Jam | Noise -> ()
      | Crash { station; _ } | Restart { station } ->
        max_station := max !max_station station;
        let prev =
          match Hashtbl.find_opt by_round lo with Some l -> l | None -> []
        in
        (* keep application order; lists are short *)
        Hashtbl.replace by_round lo (prev @ [ action ]))
    entries;
  (* sorted, overlapping and adjacent ranges merged *)
  let spans keep =
    List.filter_map
      (fun (lo, hi, a) -> if keep a then Some (lo, hi) else None)
      entries
    |> List.sort compare
    |> List.fold_left
         (fun acc (lo, hi) ->
           match acc with
           | (plo, phi) :: rest when lo - 1 <= phi -> (plo, max phi hi) :: rest
           | _ -> (lo, hi) :: acc)
         []
    |> List.rev |> Array.of_list
  in
  { name; by_round;
    points = spans (function Crash _ | Restart _ -> true | _ -> false);
    jam = spans (( = ) Jam); noise = spans (( = ) Noise); size = !size;
    max_station = !max_station }

let scripted ~name entries =
  List.iter
    (fun (_, action) ->
      match action with
      | Crash { station; _ } | Restart { station } ->
          if station < 0 then invalid_arg "Fault_plan: negative station"
      | Jam | Noise -> ())
    entries;
  build ~name (List.map (fun (r, action) -> (r, r, action)) entries)

let random ~seed ~n ~rounds ?(crash_rate = 0.) ?(jam_rate = 0.)
    ?(noise_rate = 0.) ?(restart_after = 0) ?(queue = Retain) () =
  let check_rate what r =
    if r < 0. || r > 1. then
      invalid_arg (Printf.sprintf "Fault_plan.random: %s outside [0, 1]" what)
  in
  check_rate "crash_rate" crash_rate;
  check_rate "jam_rate" jam_rate;
  check_rate "noise_rate" noise_rate;
  if n <= 0 then invalid_arg "Fault_plan.random: n must be positive";
  if rounds < 0 then invalid_arg "Fault_plan.random: negative rounds";
  if restart_after < 0 then invalid_arg "Fault_plan.random: negative restart_after";
  let rng = Mac_channel.Rng.create ~seed in
  let alive = Array.make n true in
  let restarts = Hashtbl.create 16 in
  (* restart round -> stations *)
  let entries = ref [] in
  let push round action = entries := (round, round, action) :: !entries in
  for round = 0 to rounds - 1 do
    (match Hashtbl.find_opt restarts round with
    | Some stations ->
        List.iter
          (fun s ->
            alive.(s) <- true;
            push round (Restart { station = s }))
          (List.rev stations)
    | None -> ());
    if crash_rate > 0. && Mac_channel.Rng.float rng 1.0 < crash_rate then begin
      let candidates = ref [] in
      for i = n - 1 downto 0 do
        if alive.(i) then candidates := i :: !candidates
      done;
      match !candidates with
      | [] -> ()
      | cs ->
          let victim = List.nth cs (Mac_channel.Rng.int rng (List.length cs)) in
          alive.(victim) <- false;
          push round (Crash { station = victim; queue });
          if restart_after > 0 then begin
            let back = round + restart_after in
            if back < rounds then
              let prev =
                match Hashtbl.find_opt restarts back with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace restarts back (victim :: prev)
          end
    end;
    if jam_rate > 0. && Mac_channel.Rng.float rng 1.0 < jam_rate then
      push round Jam;
    if noise_rate > 0. && Mac_channel.Rng.float rng 1.0 < noise_rate then
      push round Noise
  done;
  let name =
    Printf.sprintf "random(seed=%d,crash=%g,jam=%g,noise=%g,restart=%d)" seed
      crash_rate jam_rate noise_rate restart_after
  in
  build ~name (List.rev !entries)

(* --- plan-file parser ------------------------------------------------- *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun s -> s <> "")

let parse_int ~ln what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | Some _ -> Error (Printf.sprintf "line %d: negative %s %S" ln what s)
  | None -> Error (Printf.sprintf "line %d: expected %s, got %S" ln what s)

let parse_range ~ln s =
  (* ROUND or ROUND..ROUND *)
  match
    let rec find i =
      if i + 1 >= String.length s then None
      else if s.[i] = '.' && s.[i + 1] = '.' then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> (
      match parse_int ~ln "round" s with Ok r -> Ok (r, r) | Error e -> Error e)
  | Some dot -> (
      let lo = String.sub s 0 dot in
      let hi = String.sub s (dot + 2) (String.length s - dot - 2) in
      match (parse_int ~ln "round" lo, parse_int ~ln "round" hi) with
      | Ok a, Ok b ->
          if b < a then
            Error (Printf.sprintf "line %d: empty range %S" ln s)
          else Ok (a, b)
      | Error e, _ | _, Error e -> Error e)

let of_string ?(name = "script") text =
  let exception Bad of string in
  try
    let entries = ref [] and total = ref 0 in
    List.iteri
      (fun idx raw ->
        let ln = idx + 1 in
        let line = String.trim (strip_comment raw) in
        if line <> "" then
          let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
          let int what s =
            match parse_int ~ln what s with
            | Ok v -> v
            | Error e -> raise (Bad e)
          in
          (* a range is one entry; only its length counts *)
          let push ?hi lo action =
            let hi = Option.value hi ~default:lo in
            let len = hi - lo + 1 in
            if len <= 0 || len > max_int - !total then
              fail "line %d: %S overflows the plan size" ln line;
            total := !total + len;
            entries := (lo, hi, action) :: !entries
          in
          match tokens line with
          | [ "crash"; r; s ] ->
              push (int "round" r)
                (Crash { station = int "station" s; queue = Retain })
          | [ "crash"; r; s; policy ] ->
              let queue =
                match policy with
                | "keep" -> Retain
                | "drop" -> Drop
                | other ->
                    fail "line %d: expected keep or drop, got %S" ln other
              in
              push (int "round" r) (Crash { station = int "station" s; queue })
          | [ "restart"; r; s ] ->
              push (int "round" r) (Restart { station = int "station" s })
          | [ "jam"; range ] | [ "noise"; range ] as directive -> (
              let action =
                match directive with [ "jam"; _ ] -> Jam | _ -> Noise
              in
              match parse_range ~ln range with
              | Error e -> raise (Bad e)
              | Ok (lo, hi) -> push ~hi lo action)
          | verb :: _ ->
              fail "line %d: unknown or malformed directive %S" ln verb
          | [] -> ())
      (String.split_on_char '\n' text);
    Ok (build ~name (List.rev !entries))
  with Bad msg -> Error msg

(* The open's [Sys_error] already names the path; a read's does not (a
   directory opens fine and fails at the first read). *)
let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> (
          match of_string ~name:(Filename.basename path) text with
          | Ok plan -> Ok plan
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
      | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg))
