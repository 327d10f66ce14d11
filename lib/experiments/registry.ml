open Mac_channel

type spec = {
  algorithm : string;
  n : int;
  k : int;
  rate : Qrat.t;
  burst : Qrat.t;
  pattern : string;
  rounds : int;
  drain : int;
  seed : int;
}

let default =
  { algorithm = "orchestra"; n = 8; k = 3; rate = Qrat.make 1 2;
    burst = Qrat.of_int 2; pattern = "uniform"; rounds = 100_000; drain = 0;
    seed = 42 }

let ( let* ) = Result.bind

(* Every error names its field first, JSON-quoted. *)
let bad field fmt =
  Printf.ksprintf (fun why -> Error (Printf.sprintf "%S: %s" field why)) fmt

(* ---- algorithms ---- *)

(* The caps an algorithm accepts beyond k >= 1. *)
type caps = Any | Below_n (* 2 <= k < n *) | Up_to_n (* 2 <= k <= n *)

type entry = {
  name : string;
  n_min : int;
  caps : caps;
  make : n:int -> k:int -> seed:int -> Algorithm.t;
}

let fixed a ~n:_ ~k:_ ~seed:_ = a

(* [n_min] and [caps] are the checks the constructors and [create] make
   with [invalid_arg]. No entry takes fewer than two stations: one has
   nobody to talk to, and Count-Hop never leaves its first round with it.
   Constructors run only in [make], after the checks. *)
let table =
  let e ?(n_min = 2) ?(caps = Any) name make = { name; n_min; caps; make } in
  [ e "orchestra" ~n_min:3
      (fixed (module Mac_routing.Orchestra : Algorithm.S));
    e "count-hop" (fixed (module Mac_routing.Count_hop : Algorithm.S));
    e "adjust-window" (fixed (module Mac_routing.Adjust_window : Algorithm.S));
    e "k-cycle" ~n_min:3 ~caps:Below_n (fun ~n ~k ~seed:_ ->
        Mac_routing.K_cycle.algorithm ~n ~k);
    e "k-clique" ~n_min:3 ~caps:Below_n (fun ~n ~k ~seed:_ ->
        Mac_routing.K_clique.algorithm ~n ~k);
    e "k-subsets" ~caps:Below_n (fun ~n ~k ~seed:_ ->
        Mac_routing.K_subsets.algorithm ~n ~k ());
    e "k-subsets-rrw" ~caps:Below_n (fun ~n ~k ~seed:_ ->
        Mac_routing.K_subsets.algorithm ~discipline:`Rrw ~n ~k ());
    e "pair-tdma" (fixed (module Mac_routing.Pair_tdma : Algorithm.S));
    e "random-leader" ~caps:Up_to_n (fun ~n ~k ~seed ->
        Mac_routing.Random_leader.algorithm ~seed ~n ~k ());
    e "rrw" (fixed (module Mac_broadcast.Rrw : Algorithm.S));
    e "of-rrw" (fixed (module Mac_broadcast.Of_rrw : Algorithm.S));
    e "mbtf" (fixed (module Mac_broadcast.Mbtf : Algorithm.S));
    e "fs-tree" (fixed (Mac_broadcast.Ring_broadcast.full_sensing ()));
    e "ack-rr" (fixed (Mac_broadcast.Ring_broadcast.ack_based ()));
    e "backoff" (fun ~n:_ ~k:_ ~seed ->
        Mac_broadcast.Backoff.algorithm ~seed ()) ]

let names = List.map (fun e -> e.name) table

let find name =
  match List.find_opt (fun e -> e.name = name) table with
  | Some e -> Ok e
  | None ->
    bad "algorithm" "unknown algorithm %S; try: %s" name
      (String.concat ", " names)

let check_nk e ~n ~k =
  if n < e.n_min then bad "n" "%s needs n >= %d (got %d)" e.name e.n_min n
  else
    match e.caps with
    | Any when k < 1 -> bad "k" "must be >= 1 (got %d)" k
    | Below_n when k < 2 || k >= n ->
      bad "k" "%s needs 2 <= k < n (got k = %d, n = %d)" e.name k n
    | Up_to_n when k < 2 || k > n ->
      bad "k" "%s needs 2 <= k <= n (got k = %d, n = %d)" e.name k n
    | Any | Below_n | Up_to_n -> Ok ()

let algorithm ?(seed = 0) name ~n ~k =
  let* e = find name in
  let* () = check_nk e ~n ~k in
  Ok (e.make ~n ~k ~seed)

(* ---- patterns ---- *)

let build_pattern spec ~n ~seed =
  let module P = Mac_adversary.Pattern in
  let station s =
    match int_of_string_opt s with
    | Some i when i >= 0 && i < n -> i
    | Some _ -> failwith (Printf.sprintf "station %s outside [0, %d)" s n)
    | None -> failwith (Printf.sprintf "%S is not a station" s)
  in
  let number s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> failwith (Printf.sprintf "%S is not a number" s)
  in
  try
    match String.split_on_char ':' spec with
    | [ "uniform" ] -> Ok (P.uniform ~n ~seed)
    | [ "flood"; v ] -> Ok (P.flood ~n ~victim:(station v))
    | [ "pair"; s; d ] -> Ok (P.pair_flood ~src:(station s) ~dst:(station d))
    | [ "round-robin" ] -> Ok (P.round_robin ~n)
    | [ "to-busiest" ] -> Ok (P.to_busiest ~n)
    | [ "hotspot"; h; b ] ->
      Ok (P.hotspot ~n ~seed ~hot:(station h) ~bias:(number b))
    | [ "alternating"; s; d1; d2 ] ->
      Ok
        (P.alternating ~src:(station s) ~dst_odd:(station d1)
           ~dst_even:(station d2))
    | [ ("min-duty" | "min-pair" | "cap2") ] ->
      bad "pattern" "%S is a saboteur and only available in batch runs" spec
    | _ -> bad "pattern" "unrecognised syntax %S" spec
  with Failure msg | Invalid_argument msg ->
    bad "pattern" "bad spec %S: %s" spec msg

(* Checked once by building a throwaway instance (O(1)); the maker then
   cannot fail. *)
let pattern spec ~n ~seed =
  Result.map
    (fun (_ : Mac_adversary.Pattern.t) () ->
      Result.get_ok (build_pattern spec ~n ~seed))
    (build_pattern spec ~n ~seed)

(* ---- run specs ---- *)

let check s =
  let* e = find s.algorithm in
  let* () = check_nk e ~n:s.n ~k:s.k in
  if s.rounds < 0 then bad "rounds" "must be >= 0 (got %d)" s.rounds
  else if s.drain < 0 then bad "drain" "must be >= 0 (got %d)" s.drain
  else if not (Qrat.sign s.rate > 0 && Qrat.compare s.rate Qrat.one <= 0) then
    bad "rate" "must be in (0, 1] (got %s)" (Qrat.to_string s.rate)
  else if Qrat.compare s.burst Qrat.one < 0 then
    bad "burst" "must be >= 1 (got %s)" (Qrat.to_string s.burst)
  else
    match Mac_adversary.Leaky_bucket.create_q ~rate:s.rate ~burst:s.burst with
    | _ -> Ok ()
    | exception Qrat.Overflow _ ->
      bad "burst" "%s with rate %s overflows the token arithmetic"
        (Qrat.to_string s.burst) (Qrat.to_string s.rate)

let encode s =
  let q r = Jsonv.Str (Qrat.to_string r) in
  [ ("algorithm", Jsonv.Str s.algorithm); ("n", Jsonv.Int s.n);
    ("k", Jsonv.Int s.k); ("rate", q s.rate); ("burst", q s.burst);
    ("rounds", Jsonv.Int s.rounds); ("drain", Jsonv.Int s.drain);
    ("pattern", Jsonv.Str s.pattern); ("seed", Jsonv.Int s.seed) ]

let decode ~default v =
  let int key d =
    Jsonv.field key ~expected:"an integer" Jsonv.to_int ~default:d v
  in
  let str key d =
    Jsonv.field key ~expected:"a string" Jsonv.to_str ~default:d v
  in
  let qrat key d =
    Jsonv.field key ~expected:"a rational string such as \"1/2\""
      (fun x ->
        Option.bind (Jsonv.to_str x) (fun s ->
            Result.to_option (Qrat.of_string s)))
      ~default:d v
  in
  let* algorithm = str "algorithm" default.algorithm in
  let* rate = qrat "rate" default.rate in
  let* burst = qrat "burst" default.burst in
  let* n = int "n" default.n in
  let* k = int "k" default.k in
  let* rounds = int "rounds" default.rounds in
  let* drain = int "drain" default.drain in
  let* pattern = str "pattern" default.pattern in
  let* seed = int "seed" default.seed in
  Ok { algorithm; n; k; rate; burst; pattern; rounds; drain; seed }
