type t = { num : int; den : int }

exception Overflow of string

let overflow op = raise (Overflow (Printf.sprintf "Qrat: %s overflow" op))

(* Overflow-checked native-int primitives. [checked_mul] relies on the
   division round-trip, which is exact for every non-wrapping product. *)
let checked_add a b =
  let s = a + b in
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then overflow "add";
  s

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = min_int && b = -1) then overflow "mul";
    p
  end

let checked_neg a = if a = min_int then overflow "neg" else -a

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Qrat.make: zero denominator";
  let num, den = if den < 0 then (checked_neg num, checked_neg den) else (num, den) in
  let g = gcd (abs num) den in
  if g <= 1 then { num; den } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }

let zero = of_int 0
let one = of_int 1

let num t = t.num
let den t = t.den

let equal a b = a.num = b.num && a.den = b.den

let compare a b =
  if a.den = b.den then Stdlib.compare a.num b.num
  else begin
    (* Cross-multiply over the gcd-reduced denominators: token arithmetic
       keeps all values on a shared denominator lattice, so this usually
       shrinks the products by the whole common factor. *)
    let g = gcd a.den b.den in
    Stdlib.compare (checked_mul a.num (b.den / g)) (checked_mul b.num (a.den / g))
  end

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add a b =
  if a.den = b.den then make (checked_add a.num b.num) a.den
  else begin
    let g = gcd a.den b.den in
    let bd = b.den / g and ad = a.den / g in
    make
      (checked_add (checked_mul a.num bd) (checked_mul b.num ad))
      (checked_mul a.den bd)
  end

let neg a = { a with num = checked_neg a.num }

let sub a b = add a (neg b)

let mul a b =
  (* Cross-reduce first so intermediate products stay small. *)
  let g1 = gcd (abs a.num) b.den and g2 = gcd (abs b.num) a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make
    (checked_mul (a.num / g1) (b.num / g2))
    (checked_mul (a.den / g2) (b.den / g1))

let mul_int a i = mul a (of_int i)

let floor a =
  if a.num >= 0 then a.num / a.den else -(((-a.num) + a.den - 1) / a.den)

let is_integer a = a.den = 1

let sign a = Stdlib.compare a.num 0

let to_float a = float_of_int a.num /. float_of_int a.den

(* Simplest rational that rounds back to exactly [f]: walk the continued
   fraction of |f|, returning the first convergent whose float quotient
   is [f] again. The usual decimal literals terminate almost immediately
   (0.1 -> 1/10 on the second convergent).

   When the double's exact dyadic value p/2^s fits in native ints, the
   walk runs Euclid on (p, 2^s) — partial quotients are exact and every
   convergent satisfies h <= p, k <= 2^s, so nothing can overflow, and
   the last convergent is p/2^s itself, whose quotient rounds back to
   [f] by construction: termination is certain. Only doubles with
   |exponent| so large that 2^s leaves the int range take the float
   walk, and those round-trip on their first convergents. *)
let of_float f =
  if not (Float.is_finite f) then invalid_arg "Qrat.of_float: not finite";
  if Float.is_integer f && Float.abs f <= 1e18 then of_int (int_of_float f)
  else begin
    let target = Float.abs f in
    let restore q = if f < 0.0 then neg q else q in
    let found h k = float_of_int h /. float_of_int k = target in
    let m, e = Float.frexp target in
    let p = int_of_float (Float.ldexp m 53) in
    let tz =
      let rec go p tz = if p land 1 = 0 then go (p lsr 1) (tz + 1) else tz in
      go p 0
    in
    let p = p asr tz and s = 53 - e - tz in
    if s >= 1 && s <= 62 then begin
      let rec walk num den h1 k1 h2 k2 =
        let a = num / den and r = num mod den in
        let h = (a * h1) + h2 and k = (a * k1) + k2 in
        if r = 0 || found h k then { num = h; den = k }
        else walk den r h k h1 k1
      in
      restore (walk p (1 lsl s) 1 0 0 1)
    end
    else begin
      let rec walk x h1 k1 h2 k2 =
        (* [int_of_float] is undefined past the int range: a value (or a
           reciprocal) that large has no native-int convergent. *)
        if Float.floor x >= 0x1p62 then overflow "of_float";
        let a = int_of_float (Float.floor x) in
        let h = checked_add (checked_mul a h1) h2 in
        let k = checked_add (checked_mul a k1) k2 in
        let frac = x -. Float.floor x in
        if frac <= 0.0 || found h k then { num = h; den = k }
        else walk (1.0 /. frac) h k h1 k1
      in
      restore (walk target 1 0 0 1)
    end
  end

let to_string a =
  if a.den = 1 then string_of_int a.num
  else Printf.sprintf "%d/%d" a.num a.den

let pp ppf a = Format.pp_print_string ppf (to_string a)

let of_string s =
  let s = String.trim s in
  if s = "" then Error "empty rational"
  else
    try
      match String.index_opt s '/' with
      | Some i ->
        let a = String.sub s 0 i
        and b = String.sub s (i + 1) (String.length s - i - 1) in
        (match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b)) with
         | Some n, Some d ->
           if d = 0 then Error (Printf.sprintf "%S: zero denominator" s)
           else Ok (make n d)
         | _ -> Error (Printf.sprintf "%S: expected INT/INT" s))
      | None -> (
        match int_of_string_opt s with
        | Some n -> Ok (of_int n)
        | None -> (
          match float_of_string_opt s with
          | Some f when Float.is_finite f -> Ok (of_float f)
          | _ -> Error (Printf.sprintf "%S: not a rational (INT, INT/INT or decimal)" s)))
    with Overflow msg -> Error (Printf.sprintf "%S: %s" s msg)
