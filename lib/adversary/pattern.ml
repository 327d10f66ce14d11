type t = {
  name : string;
  generate : round:int -> budget:int -> view:View.t -> (int * int) list;
  save : unit -> string;
  load : string -> unit;
}

let make ?save ?load ~name generate =
  let save = match save with Some f -> f | None -> fun () -> "" in
  let load =
    match load with
    | Some f -> f
    | None ->
      fun s ->
        if s <> "" then
          invalid_arg
            (Printf.sprintf
               "Pattern.load: %s is stateless but was given state %S" name s)
  in
  { name; generate; save; load }

(* Checkpoint encodings are length-prefixed concatenations so composite
   patterns (mix, duty_cycle) can nest inner states without escaping. *)
let cat parts =
  String.concat ""
    (List.map (fun s -> string_of_int (String.length s) ^ ":" ^ s) parts)

let uncat s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match String.index_from_opt s i ':' with
      | None -> invalid_arg "Pattern.load: malformed state"
      | Some j ->
        let len =
          match int_of_string_opt (String.sub s i (j - i)) with
          | Some l when l >= 0 && j + 1 + l <= n -> l
          | _ -> invalid_arg "Pattern.load: malformed state"
        in
        go (j + 1 + len) (String.sub s (j + 1) len :: acc)
  in
  go 0 []

let rng_save rng () = Int64.to_string (Mac_channel.Rng.state rng)

let rng_load rng s =
  match Int64.of_string_opt s with
  | Some v -> Mac_channel.Rng.set_state rng v
  | None -> invalid_arg "Pattern.load: bad rng state"

let counter_save c () = string_of_int !c

let counter_load c s =
  match int_of_string_opt s with
  | Some v -> c := v
  | None -> invalid_arg "Pattern.load: bad counter state"

(* Builds a list of [budget] pairs from an indexed generator. *)
let tabulate budget f = List.init budget f

let uniform ~n ~seed =
  let rng = Mac_channel.Rng.create ~seed in
  let gen ~round:_ ~budget ~view:_ =
    tabulate budget (fun _ ->
        let src = Mac_channel.Rng.int rng n in
        let d = Mac_channel.Rng.int rng (n - 1) in
        let dst = if d >= src then d + 1 else d in
        (src, dst))
  in
  make ~save:(rng_save rng) ~load:(rng_load rng)
    ~name:(Printf.sprintf "uniform(seed=%d)" seed) gen

let flood ~n ~victim =
  let counter = ref 0 in
  let gen ~round:_ ~budget ~view:_ =
    tabulate budget (fun _ ->
        let d = !counter mod (n - 1) in
        incr counter;
        let dst = if d >= victim then d + 1 else d in
        (victim, dst))
  in
  make ~save:(counter_save counter) ~load:(counter_load counter)
    ~name:(Printf.sprintf "flood(victim=%d)" victim) gen

let pair_flood ~src ~dst =
  if src = dst then invalid_arg "Pattern.pair_flood: src = dst";
  let gen ~round:_ ~budget ~view:_ = tabulate budget (fun _ -> (src, dst)) in
  make ~name:(Printf.sprintf "pair-flood(%d->%d)" src dst) gen

let round_robin ~n =
  let counter = ref 0 in
  let gen ~round:_ ~budget ~view:_ =
    tabulate budget (fun _ ->
        let src = !counter mod n in
        incr counter;
        (src, (src + 1) mod n))
  in
  make ~save:(counter_save counter) ~load:(counter_load counter)
    ~name:"round-robin" gen

let hotspot ~n ~seed ~hot ~bias =
  if not (bias >= 0.0 && bias <= 1.0) then invalid_arg "Pattern.hotspot: bias";
  let rng = Mac_channel.Rng.create ~seed in
  let gen ~round:_ ~budget ~view:_ =
    tabulate budget (fun _ ->
        let dst =
          if Mac_channel.Rng.float rng 1.0 < bias then hot
          else Mac_channel.Rng.int rng n
        in
        let s = Mac_channel.Rng.int rng (n - 1) in
        let src = if s >= dst then s + 1 else s in
        (src, dst))
  in
  make ~save:(rng_save rng) ~load:(rng_load rng)
    ~name:(Printf.sprintf "hotspot(hot=%d,bias=%.2f)" hot bias) gen

let alternating ~src ~dst_odd ~dst_even =
  if src = dst_odd || src = dst_even then invalid_arg "Pattern.alternating";
  let gen ~round ~budget ~view:_ =
    let dst = if round mod 2 = 1 then dst_odd else dst_even in
    tabulate budget (fun _ -> (src, dst))
  in
  make ~name:(Printf.sprintf "alternating(%d->%d|%d)" src dst_odd dst_even) gen

let mix ~seed weighted =
  if weighted = [] then invalid_arg "Pattern.mix: empty";
  List.iter (fun (w, _) -> if w <= 0 then invalid_arg "Pattern.mix: weight") weighted;
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  let rng = Mac_channel.Rng.create ~seed in
  let pick () =
    let roll = Mac_channel.Rng.int rng total in
    let rec go acc = function
      | [] -> assert false
      | (w, p) :: rest -> if roll < acc + w then p else go (acc + w) rest
    in
    go 0 weighted
  in
  let gen ~round ~budget ~view =
    List.concat_map
      (fun _ ->
        let p = pick () in
        match p.generate ~round ~budget:1 ~view with
        | pair :: _ -> [ pair ]
        | [] -> [])
      (List.init budget (fun i -> i))
  in
  let save () =
    cat (rng_save rng () :: List.map (fun (_, p) -> p.save ()) weighted)
  in
  let load s =
    match uncat s with
    | own :: inner when List.length inner = List.length weighted ->
      rng_load rng own;
      List.iter2 (fun (_, p) st -> p.load st) weighted inner
    | _ -> invalid_arg "Pattern.load: mix arity mismatch"
  in
  make ~save ~load ~name:"mix" gen

let duty_cycle ~busy ~idle inner =
  if busy <= 0 || idle < 0 then invalid_arg "Pattern.duty_cycle";
  let period = busy + idle in
  let gen ~round ~budget ~view =
    if round mod period < busy then inner.generate ~round ~budget ~view else []
  in
  make ~save:inner.save ~load:inner.load
    ~name:(Printf.sprintf "duty(%d/%d,%s)" busy period inner.name) gen

let one_shot ~at ~src ~dst =
  if src = dst then invalid_arg "Pattern.one_shot: src = dst";
  let fired = ref false in
  let gen ~round ~budget ~view:_ =
    if round >= at && budget > 0 && not !fired then begin
      fired := true;
      [ (src, dst) ]
    end
    else []
  in
  make
    ~save:(fun () -> if !fired then "1" else "0")
    ~load:(fun s ->
      match s with
      | "0" -> fired := false
      | "1" -> fired := true
      | _ -> invalid_arg "Pattern.load: bad one-shot state")
    ~name:(Printf.sprintf "one-shot(%d->%d@%d)" src dst at)
    gen

(* --- External injection -------------------------------------------------

   The one pattern whose packets come from outside the process: a FIFO of
   scheduled (at, src, dst) injections, fed by the serve layer's [inject]
   commands or preloaded from a trace file. [generate] pops from the head
   while the head's scheduled round has been reached — head-blocking, so
   the file/push order is the injection order and a replay is
   deterministic. The queue is mutex-guarded: the serve daemon pushes from
   its protocol thread while a shard domain drains it inside the engine's
   injection phase. [save]/[load] carry the not-yet-injected remainder, so
   checkpoints taken mid-replay resume without losing pending packets. *)

type feed = {
  push : at:int -> src:int -> dst:int -> unit;
  pending : unit -> int;
  since_save : unit -> (int * int * int) list;
}

let external_queue ?(name = "external") ?(initial = []) () =
  let m = Mutex.create () in
  let locked f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  let validate (at, src, dst) =
    if src = dst then invalid_arg "Pattern.external_queue: src = dst";
    if at < 0 || src < 0 || dst < 0 then
      invalid_arg "Pattern.external_queue: negative round or station"
  in
  List.iter validate initial;
  (* Two-list FIFO: pop from [front], push onto [back] (reversed). [since]
     holds the pushes since the last [save] or [load], newest first. *)
  let front = ref initial in
  let back = ref [] in
  let since = ref [] in
  let push ~at ~src ~dst =
    let item = (at, src, dst) in
    validate item;
    locked (fun () ->
        back := item :: !back;
        since := item :: !since)
  in
  let pending () =
    locked (fun () -> List.length !front + List.length !back)
  in
  let since_save () = locked (fun () -> List.rev !since) in
  let gen ~round ~budget ~view:_ =
    locked (fun () ->
        let rec take budget acc =
          if budget = 0 then List.rev acc
          else begin
            if !front = [] then begin
              front := List.rev !back;
              back := []
            end;
            match !front with
            | (at, src, dst) :: rest when at <= round ->
              front := rest;
              take (budget - 1) ((src, dst) :: acc)
            | _ -> List.rev acc
          end
        in
        take budget [])
  in
  let save () =
    locked (fun () ->
        since := [];
        cat
          (List.map
             (fun (a, s, d) -> Printf.sprintf "%d,%d,%d" a s d)
             (!front @ List.rev !back)))
  in
  let load st =
    let parse part =
      match String.split_on_char ',' part with
      | [ a; s; d ] -> (
        match
          (int_of_string_opt a, int_of_string_opt s, int_of_string_opt d)
        with
        | Some a, Some s, Some d -> (a, s, d)
        | _ -> invalid_arg "Pattern.load: bad external-queue state")
      | _ -> invalid_arg "Pattern.load: bad external-queue state"
    in
    let items = List.map parse (uncat st) in
    List.iter validate items;
    locked (fun () ->
        front := items;
        back := [];
        since := [])
  in
  ({ push; pending; since_save }, make ~save ~load ~name gen)

let to_busiest ~n =
  let counter = ref 0 in
  let gen ~round:_ ~budget ~view:(view : View.t) =
    let busiest = ref 0 in
    for i = 1 to n - 1 do
      if view.queue_size i > view.queue_size !busiest then busiest := i
    done;
    tabulate budget (fun _ ->
        let d = !counter mod (n - 1) in
        incr counter;
        let dst = if d >= !busiest then d + 1 else d in
        (!busiest, dst))
  in
  make ~save:(counter_save counter) ~load:(counter_load counter)
    ~name:"to-busiest" gen
