open Mac_channel
module Scenario = Mac_experiments.Scenario

type mismatch = { what : string; engine : string; oracle : string }

type verdict = {
  id : string;
  events : int;
  mismatches : mismatch list;
}

let agrees v = v.mismatches = []

let pp_verdict ppf v =
  if agrees v then
    Format.fprintf ppf "%s: ok (%d events)" v.id v.events
  else begin
    Format.fprintf ppf "@[<v>%s: %d divergence(s)" v.id (List.length v.mismatches);
    List.iter
      (fun m ->
        Format.fprintf ppf "@,  %s: engine=%s oracle=%s" m.what m.engine m.oracle)
      v.mismatches;
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* The runs. *)

type 'a outcome = Finished of 'a | Raised of string

(* The oracle's terms: violations are counted, not raised, and the
   schedule is not cross-checked. *)
let config spec =
  { (Scenario.config spec) with strict = false; check_schedule = false }

(* The engine on [spec] under {!config} in [mode]: its outcome, the event
   stream a recording sink saw (none without [sink]), and the Marshal
   bytes of each snapshot taken every [checkpoint_every] rounds (none at
   0). *)
let engine_run ?(sink = true) ?(checkpoint_every = 0) mode spec =
  let events = ref [] and snapshots = ref [] in
  let record r x = r := x :: !r in
  let config =
    { (config spec) with
      mode;
      sink =
        (if sink then
           Some (Mac_sim.Sink.make (fun ~round ev -> record events (round, ev)))
         else None);
      checkpoint_every;
      on_checkpoint =
        (if checkpoint_every > 0 then
           Some (fun s -> record snapshots (Marshal.to_string s []))
         else None) }
  in
  let outcome =
    try Finished (Scenario.simulate ~config spec)
    with Mac_sim.Engine.Protocol_violation msg -> Raised msg
  in
  (outcome, List.rev !events, List.rev !snapshots)

let oracle_run (r : Scenario.spec) =
  try
    let digest, events =
      Oracle.run ~algorithm:r.algorithm ~n:r.n ~k:r.k ~rate:r.rate
        ~burst:r.burst ~pacing:r.pacing ~pattern:(r.pattern ()) ~rounds:r.rounds
        ~drain:r.drain ~strict:false ?faults:r.faults ()
    in
    (Finished digest, events)
  with Oracle.Violation msg -> (Raised msg, [])

(* ------------------------------------------------------------------ *)
(* Comparison: every mismatch puts the run under test under [engine] and
   the reference under [oracle]. *)

let values (s : Mac_sim.Metrics.summary) =
  List.map
    (fun (f : Mac_sim.Metrics.field) -> (f.name, f.read s))
    Mac_sim.Metrics.fields

(* Floats compare bit for bit: both sides accumulate in the same order,
   so any difference is a real drift. *)
let same (a : Mac_sim.Metrics.value) (b : Mac_sim.Metrics.value) =
  match (a, b) with
  | Float x, Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let render : Mac_sim.Metrics.value -> string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float x -> Printf.sprintf "%h" x

(* Every exported field of the summary under test against the
   reference's value of the same name. A field the reference leaves out
   is a mismatch unless the oracle declares it {!Oracle.unmodelled}. *)
let compare_fields (e : Mac_sim.Metrics.summary) reference =
  List.filter_map
    (fun (name, v) ->
      match List.assoc_opt name reference with
      | Some r when same v r -> None
      | Some r -> Some { what = name; engine = render v; oracle = render r }
      | None when List.mem name Oracle.unmodelled -> None
      | None -> Some { what = name; engine = render v; oracle = "<missing>" })
    (values e)

(* Two engine summaries: every field by name, then the Marshal bytes,
   which also cover the histogram and the queue series. *)
let compare_summaries (e : Mac_sim.Metrics.summary) o =
  match compare_fields e (values o) with
  | [] when Marshal.to_string e [] <> Marshal.to_string o [] ->
    [ { what = "summary.bytes"; engine = "<differs>"; oracle = "<differs>" } ]
  | fields -> fields

(* The first position at which two recorded streams differ, if any; a
   stream that ended there shows as "<stream ended>". *)
let compare_streams ~what ~show engine oracle =
  let head = function [] -> "<stream ended>" | x :: _ -> show x in
  let rec go i es os =
    match (es, os) with
    | [], [] -> []
    | e :: es', o :: os' when e = o -> go (i + 1) es' os'
    | _ -> [ { what = what i; engine = head es; oracle = head os } ]
  in
  go 0 engine oracle

let compare_events =
  compare_streams ~what:(Printf.sprintf "event[%d]") ~show:(fun (round, ev) ->
      Printf.sprintf "r%d %s" round (Event.to_string ev))

let compare_snapshots =
  compare_streams ~what:(Printf.sprintf "checkpoint[%d]") ~show:(fun s ->
      Printf.sprintf "<%d bytes>" (String.length s))

(* A run under test against its reference: [same] compares two finished
   runs; two runs that raised agree when their messages do. [tag]
   prefixes every mismatch name. *)
let compare_outcomes ?(tag = "") same test reference =
  let show = function Finished _ -> "<finished>" | Raised msg -> msg in
  let mismatches =
    match (test, reference) with
    | Finished t, Finished r -> same t r
    | Raised x, Raised y when String.equal x y -> []
    | _ ->
      [ { what = "exception"; engine = show test; oracle = show reference } ]
  in
  List.map (fun m -> { m with what = tag ^ m.what }) mismatches

type reference = Oracle | Dense

let check reference (spec : Scenario.spec) =
  match reference with
  | Oracle ->
    let e, e_events, _ = engine_run Mac_sim.Engine.Dense spec in
    let o, o_events = oracle_run spec in
    { id = spec.id;
      events = max (List.length e_events) (List.length o_events);
      mismatches =
        compare_outcomes
          (fun t r -> compare_fields t r @ compare_events e_events o_events)
          e o }
  | Dense ->
    (* Three runs of the spec: dense with a sink and checkpoints (the
       reference), sparse without a sink (skip-ahead armed) at the same
       checkpoint cadence, and sparse with a sink (sparse concrete
       iteration, exact event order). A cadence that is coprime-ish with
       typical schedules lands checkpoints mid-stretch. *)
    let checkpoint_every = max 1 (spec.rounds / 7) in
    let d, d_events, d_snaps =
      engine_run ~checkpoint_every Mac_sim.Engine.Dense spec
    in
    let s, _, s_snaps =
      engine_run ~sink:false ~checkpoint_every Mac_sim.Engine.Sparse spec
    in
    let se, se_events, _ = engine_run Mac_sim.Engine.Sparse spec in
    { id = spec.id ^ " [sparse-certify]";
      events = List.length d_events;
      mismatches =
        compare_outcomes ~tag:"sparse."
          (fun t r ->
            compare_summaries t r @ compare_snapshots s_snaps d_snaps)
          s d
        @ compare_outcomes ~tag:"sparse+sink."
            (fun t r ->
              compare_summaries t r @ compare_events se_events d_events)
            se d }

let check_all ?jobs reference specs =
  Scenario.run_batch ?jobs
    (List.map (fun spec () -> check reference spec) specs)

(* ------------------------------------------------------------------ *)
(* Random configurations. *)

(* Indexed by the generator's first draw: a registry name and its draw of
   (n, k, algorithm seed) inside the algorithm's bounds. Keep the draws
   and their order: a seed must name the same configuration in every
   version. The algorithm values are stateless (per-station state is
   created inside each run), so engine and oracle can share one value. *)
let algorithm_draws =
  let pick_nk ~nmin ~nmax ~kmax_of rng =
    let n = nmin + Rng.int rng (nmax - nmin + 1) in
    let kmax = kmax_of n in
    let k = 2 + Rng.int rng (max 1 (kmax - 1)) in
    (n, min k kmax)
  in
  let below_n ~nmin ~nmax rng =
    let n, k = pick_nk ~nmin ~nmax ~kmax_of:(fun n -> n - 1) rng in
    (n, k, 0)
  in
  let k2 rng = (3 + Rng.int rng 6, 2, 0) in
  (* The broadcast family runs all stations switched on (required_cap =
     n), so the supply cap is pinned to n. *)
  let all_on rng =
    let n = 2 + Rng.int rng 7 in
    (n, n, 0)
  in
  [| ("orchestra", fun rng -> (3 + Rng.int rng 6, 3, 0));
     ("k-cycle", below_n ~nmin:4 ~nmax:10);
     ("k-subsets", below_n ~nmin:4 ~nmax:7);
     ("k-subsets-rrw", below_n ~nmin:4 ~nmax:7);
     ("k-clique", below_n ~nmin:4 ~nmax:8);
     ( "random-leader",
       fun rng ->
         let n, k = pick_nk ~nmin:3 ~nmax:9 ~kmax_of:Fun.id rng in
         (n, k, Rng.int rng 1000) );
     ("count-hop", k2);
     ("adjust-window", k2);
     ( "pair-tdma",
       fun rng ->
         let n = 3 + Rng.int rng 8 in
         (n, 2 + Rng.int rng 3, 0) );
     ("rrw", all_on);
     ("of-rrw", all_on);
     ("mbtf", all_on);
     ("fs-tree", all_on);
     ("ack-rr", all_on);
     ( "backoff",
       fun rng ->
         let n, k, _ = all_on rng in
         (n, k, Rng.int rng 1000) ) |]

let registered ?seed name ~n ~k =
  match Mac_experiments.Registry.algorithm ?seed name ~n ~k with
  | Ok a -> a
  | Error msg -> invalid_arg ("Diff: " ^ msg)

(* A pattern maker: every random draw happens before it is built, so
   each call constructs the same pattern with fresh state. *)
let build_pattern rng ~n =
  let case = Rng.int rng 7 in
  let seed = Rng.int rng 10_000 in
  let a = Rng.int rng n in
  let b = (a + 1 + Rng.int rng (n - 1)) mod n in
  let bias = 0.25 +. (0.5 *. float_of_int (Rng.int rng 3) /. 2.0) in
  let busy = 5 + Rng.int rng 20 in
  let idle = 5 + Rng.int rng 20 in
  fun () ->
    match case with
    | 0 -> Mac_adversary.Pattern.uniform ~n ~seed
    | 1 -> Mac_adversary.Pattern.flood ~n ~victim:a
    | 2 -> Mac_adversary.Pattern.pair_flood ~src:a ~dst:b
    | 3 -> Mac_adversary.Pattern.round_robin ~n
    | 4 ->
      (* keep both destinations distinct from the source [a] *)
      let e = (b + 1) mod n in
      let dst_even = if e = a then (e + 1) mod n else e in
      Mac_adversary.Pattern.alternating ~src:a ~dst_odd:b ~dst_even
    | 5 -> Mac_adversary.Pattern.hotspot ~n ~seed ~hot:a ~bias
    | 6 ->
      Mac_adversary.Pattern.duty_cycle ~busy ~idle
        (Mac_adversary.Pattern.uniform ~n ~seed)
    | _ -> assert false

(* Everything a configuration draws after its algorithm — traffic,
   horizon, faults, the pattern. *)
let draw_spec rng ~tag ~seed ~n ~k ~algorithm =
  let den = 1 + Rng.int rng 12 in
  let num = 1 + Rng.int rng den in
  let rate = Qrat.make num den in
  let burst =
    Qrat.add (Qrat.of_int (1 + Rng.int rng 4)) (Qrat.make 1 (2 + Rng.int rng 6))
  in
  let pacing =
    match Rng.int rng 3 with
    | 0 -> Mac_adversary.Adversary.Greedy
    | 1 -> Mac_adversary.Adversary.Paced { burst_at = None }
    | _ -> Mac_adversary.Adversary.Paced { burst_at = Some (Rng.int rng 200) }
  in
  let rounds = 200 + Rng.int rng 1100 in
  let drain = if Rng.bool rng then rounds / 2 else 0 in
  let faults =
    match Rng.int rng 3 with
    | 0 -> None
    | 1 ->
      Some
        (Mac_faults.Fault_plan.random ~seed:(Rng.int rng 10_000) ~n ~rounds
           ~jam_rate:0.01 ~noise_rate:0.005 ())
    | _ ->
      Some
        (Mac_faults.Fault_plan.random ~seed:(Rng.int rng 10_000) ~n ~rounds
           ~crash_rate:0.002 ~jam_rate:0.005
           ~restart_after:(if Rng.bool rng then 0 else 40)
           ~queue:(if Rng.bool rng then Mac_faults.Fault_plan.Retain
                   else Mac_faults.Fault_plan.Drop)
           ())
  in
  let pattern = build_pattern rng ~n in
  let id =
    Printf.sprintf "%s=%d %s n=%d k=%d rho=%s beta=%s r=%d" tag seed
      (pattern ()).Mac_adversary.Pattern.name n k (Qrat.to_string rate)
      (Qrat.to_string burst) rounds
  in
  Scenario.spec_q ~id ~algorithm ~n ~k ~rate ~burst ~pattern ~pacing ~rounds
    ~drain ?faults ()

let random ~seed =
  let rng = Rng.create ~seed in
  let name, draw =
    algorithm_draws.(Rng.int rng (Array.length algorithm_draws))
  in
  let n, k, algo_seed = draw rng in
  let algorithm = registered ~seed:algo_seed name ~n ~k in
  draw_spec rng ~tag:"seed" ~seed ~n ~k ~algorithm

(* Like [random] but pinned to a family whose sparse hook fast-forwards
   station state: k-Cycle, k-Clique or k-Subsets (MBTF), each drawn a
   third of the time within its bounds in [algorithm_draws]. *)
let random_oblivious ~seed =
  let rng = Rng.create ~seed in
  let name = [| "k-cycle"; "k-clique"; "k-subsets" |].(Rng.int rng 3) in
  let n, k, _ = List.assoc name (Array.to_list algorithm_draws) rng in
  draw_spec rng ~tag:"oblivious-seed" ~seed ~n ~k
    ~algorithm:(registered name ~n ~k)

(* Like [random] but pinned to a sparse-capable algorithm (pair-TDMA or
   the ack-based broadcast TDMA). *)
let random_sparse ~seed =
  let rng = Rng.create ~seed in
  let n = 3 + Rng.int rng 8 in
  let k, name =
    if Rng.bool rng then (2 + Rng.int rng 3, "pair-tdma") else (n, "ack-rr")
  in
  draw_spec rng ~tag:"sparse-seed" ~seed ~n ~k
    ~algorithm:(registered name ~n ~k)
