open Mac_channel

type t = {
  rate : Qrat.t;
  burst : Qrat.t;
  cap : Qrat.t; (* rate + burst, the clamp *)
  mutable tokens : Qrat.t;
}

let create_q ~rate ~burst =
  if not (Qrat.sign rate > 0 && Qrat.compare rate Qrat.one <= 0) then
    invalid_arg "Leaky_bucket: rate must be in (0, 1]";
  if Qrat.compare burst Qrat.one < 0 then
    invalid_arg "Leaky_bucket: burst must be >= 1";
  let cap = Qrat.add rate burst in
  { rate; burst; cap; tokens = cap }

let rate_q t = t.rate
let burst_q t = t.burst

let tokens t = t.tokens

let set_tokens t v =
  if Qrat.sign v < 0 || Qrat.compare v t.cap > 0 then
    invalid_arg "Leaky_bucket.set_tokens: out of [0, rate+burst]";
  t.tokens <- v

let grant t = Qrat.floor t.tokens

let consume t count =
  if count < 0 || count > grant t then invalid_arg "Leaky_bucket.consume";
  t.tokens <- Qrat.sub t.tokens (Qrat.of_int count)

let advance t = t.tokens <- Qrat.min t.cap (Qrat.add t.tokens t.rate)

(* min cap (tokens + m*rate) equals m chained [advance]s with no spending in
   between: once the level clamps at cap it stays there (rate > 0), and
   below the clamp the additions telescope. Qrat keeps every value in
   canonical form, so the closed form is bit-identical to the iteration. *)
let skip t ~rounds =
  if rounds < 0 then invalid_arg "Leaky_bucket.skip: negative rounds";
  if rounds > 0 then
    t.tokens <- Qrat.min t.cap (Qrat.add t.tokens (Qrat.mul_int t.rate rounds))
