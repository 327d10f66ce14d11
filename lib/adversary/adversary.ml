open Mac_channel

type pacing =
  | Greedy
  | Paced of { burst_at : int option }

type t = {
  name : string;
  rate : Qrat.t;
  burst : Qrat.t;
  pacing : pacing;
  pattern : Pattern.t;
}

let create_q ?name ~rate ~burst ?(pacing = Greedy) pattern =
  let name =
    match name with
    | Some s -> s
    | None ->
      Printf.sprintf "%s@(%.3g,%.3g)" pattern.Pattern.name (Qrat.to_float rate)
        (Qrat.to_float burst)
  in
  { name; rate; burst; pacing; pattern }

type driver = {
  spec : t;
  bucket : Leaky_bucket.t;
  mutable injected_total : int;
}

let start spec =
  { spec; bucket = Leaky_bucket.create_q ~rate:spec.rate ~burst:spec.burst;
    injected_total = 0 }

let spec d = d.spec

let tokens d = Leaky_bucket.tokens d.bucket

type driver_state = {
  tokens : Qrat.t;
  injected_total : int;
  pattern_state : string;
}

let save_driver d =
  { tokens = Leaky_bucket.tokens d.bucket;
    injected_total = d.injected_total;
    pattern_state = d.spec.pattern.Pattern.save () }

let restore_driver d st =
  Leaky_bucket.set_tokens d.bucket st.tokens;
  d.injected_total <- st.injected_total;
  d.spec.pattern.Pattern.load st.pattern_state

(* Number of packets the pacing discipline wants to inject this round,
   before bucket capping. *)
let desired d ~round =
  match d.spec.pacing with
  | Greedy -> max_int
  | Paced { burst_at } ->
    let r = d.spec.rate in
    let steady =
      Qrat.floor (Qrat.mul_int r (round + 1)) - Qrat.floor (Qrat.mul_int r round)
    in
    let extra =
      match burst_at with
      | Some b when b = round -> Qrat.floor d.spec.burst
      | _ -> 0
    in
    steady + extra

let ceil_div a b = ((a + b) - 1) / b (* positive operands *)

(* Earliest round >= round at which [inject] could return a non-empty list,
   assuming one [inject] per round and no admissions in between (each quiet
   round only refills the bucket) — exactly the skip-ahead situation. The
   answer is exact for both pacing disciplines; the pattern may still
   decline its budget, which merely costs one concrete round. *)
let next_admission d ~round =
  let r = d.spec.rate in
  (* Rounds until the bucket grants a token: m = ceil((1 - tokens)/rate),
     0 if it already does. The cap (rate + burst >= rate + 1) never blocks
     the climb to 1. *)
  let tg = round + Leaky_bucket.rounds_to_grant d.bucket in
  match d.spec.pacing with
  | Greedy -> tg
  | Paced { burst_at } ->
    (* First t >= tg with floor(r*(t+1)) - floor(r*t) >= 1. With
       v = floor(r*tg), that is the first t with r*(t+1) >= v + 1: the
       steady allowance stays 0 while r*(t+1) < v + 1 (both floors stuck
       at v) and reaches 1 the round the product crosses. *)
    let v = Qrat.floor (Qrat.mul_int r tg) in
    let t1 = ceil_div ((v + 1) * Qrat.den r) (Qrat.num r) - 1 in
    (match burst_at with
     | Some b when b >= tg && b < t1 && Qrat.floor d.spec.burst > 0 -> b
     | _ -> t1)

(* Bit-identical to [rounds] calls to [inject] on rounds where the budget is
   zero: the pattern is never consulted, nothing is consumed, the bucket
   advances. Callers must ensure the skipped rounds really admit nothing
   (see [next_admission]). *)
let skip_rounds d ~rounds = Leaky_bucket.skip d.bucket ~rounds

(* Whether every proposal is admissible as is: within the budget and not
   self-addressed. Patterns almost always propose exactly that, and then
   the list is passed on without being copied. *)
let rec admissible budget = function
  | [] -> true
  | (src, (dst : int)) :: rest ->
    budget > 0 && src <> dst && admissible (budget - 1) rest

let inject d ~view =
  let round = view.View.round in
  let budget = min (Leaky_bucket.grant d.bucket) (desired d ~round) in
  if budget <= 0 then begin
    Leaky_bucket.advance d.bucket;
    []
  end
  else begin
    let proposed = d.spec.pattern.Pattern.generate ~round ~budget ~view in
    let injections =
      if admissible budget proposed then proposed
      else List.filteri (fun i (src, dst) -> i < budget && src <> dst) proposed
    in
    let count = List.length injections in
    Leaky_bucket.consume d.bucket count;
    Leaky_bucket.advance d.bucket;
    d.injected_total <- d.injected_total + count;
    injections
  end
