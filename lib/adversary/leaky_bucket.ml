open Mac_channel

(* The level is kept as an integer numerator over the fixed denominator
   [scale] = lcm(den rate, den burst). Every reachable level lies on that
   lattice — the cap rate + burst does, refills add rate and injections
   subtract whole tokens — so the recurrence is exact integer arithmetic
   and a round allocates nothing. [create_q] checks once that the largest
   intermediate, cap + rate, fits in a native int; [skip] saturates at the
   cap instead of multiplying past it. *)
type t = {
  scale : int;
  rate_units : int; (* rate * scale *)
  cap_units : int; (* (rate + burst) * scale, the clamp *)
  mutable level : int; (* tokens * scale *)
}

let overflow () =
  raise (Qrat.Overflow "Leaky_bucket: the token lattice overflows")

(* Positive operands only. *)
let checked_mul a b =
  let p = a * b in
  if p / a <> b then overflow ();
  p

let create_q ~rate ~burst =
  if not (Qrat.sign rate > 0 && Qrat.compare rate Qrat.one <= 0) then
    invalid_arg "Leaky_bucket: rate must be in (0, 1]";
  if Qrat.compare burst Qrat.one < 0 then
    invalid_arg "Leaky_bucket: burst must be >= 1";
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let dr = Qrat.den rate and db = Qrat.den burst in
  let scale = checked_mul (dr / gcd dr db) db in
  let rate_units = checked_mul (Qrat.num rate) (scale / dr) in
  let burst_units = checked_mul (Qrat.num burst) (scale / db) in
  let cap_units = rate_units + burst_units in
  if cap_units < burst_units || cap_units + rate_units < cap_units then
    overflow ();
  { scale; rate_units; cap_units; level = cap_units }

let tokens t = Qrat.make t.level t.scale

(* A level below 0 or above the cap, or one that is not a multiple of
   1/scale, is reachable by no run, so a snapshot carrying one is corrupt. *)
let set_tokens t v =
  if t.scale mod Qrat.den v <> 0 then
    invalid_arg "Leaky_bucket.set_tokens: level off the rate/burst lattice";
  let m = t.scale / Qrat.den v in
  if Qrat.num v < 0 || Qrat.num v > t.cap_units / m then
    invalid_arg "Leaky_bucket.set_tokens: out of [0, rate+burst]";
  t.level <- Qrat.num v * m

let grant t = t.level / t.scale

let rounds_to_grant t =
  if t.level >= t.scale then 0
  else (t.scale - t.level + t.rate_units - 1) / t.rate_units

let consume t count =
  if count < 0 || count > grant t then invalid_arg "Leaky_bucket.consume";
  t.level <- t.level - (count * t.scale)

let advance t =
  let v = t.level + t.rate_units in
  t.level <- (if v < t.cap_units then v else t.cap_units)

(* min cap (level + m*rate) equals m chained [advance]s with no spending in
   between: once the level clamps at cap it stays there (rate > 0), and
   below the clamp the additions telescope. The clamp is reached once m
   covers the room left, which also keeps m*rate from overflowing. *)
let skip t ~rounds =
  if rounds < 0 then invalid_arg "Leaky_bucket.skip: negative rounds";
  let room = t.cap_units - t.level in
  t.level <-
    (if rounds >= (room + t.rate_units - 1) / t.rate_units then t.cap_units
     else t.level + (rounds * t.rate_units))
