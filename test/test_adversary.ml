(* Tests for the adversarial-injection substrate: the leaky bucket (with the
   windowed-constraint property the whole model rests on), injection
   patterns, pacing disciplines and the impossibility-proof saboteurs. *)

open Mac_adversary
module Q = Mac_channel.Qrat

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Leaky bucket ---- *)

let test_bucket_initial_grant () =
  let b = Leaky_bucket.create_q ~rate:(Q.make 1 2) ~burst:(Q.of_int 3) in
  check_int "initial grant = floor(rate+burst)" 3 (Leaky_bucket.grant b)

let test_bucket_consume_refill () =
  let b = Leaky_bucket.create_q ~rate:(Q.make 1 2) ~burst:(Q.of_int 3) in
  Leaky_bucket.consume b 3;
  Leaky_bucket.advance b;
  check_int "after one refill" 1 (Leaky_bucket.grant b);
  Leaky_bucket.advance b;
  check_int "after two refills" 1 (Leaky_bucket.grant b)

let test_bucket_clamp () =
  let b = Leaky_bucket.create_q ~rate:(Q.make 1 2) ~burst:(Q.of_int 3) in
  for _ = 1 to 100 do Leaky_bucket.advance b done;
  check_int "clamped at rate+burst" 3 (Leaky_bucket.grant b)

let test_bucket_overdraw_rejected () =
  let b = Leaky_bucket.create_q ~rate:(Q.make 1 2) ~burst:Q.one in
  Alcotest.check_raises "overdraw" (Invalid_argument "Leaky_bucket.consume")
    (fun () -> Leaky_bucket.consume b 10)

let test_bucket_bad_args () =
  Alcotest.check_raises "rate 0" (Invalid_argument "Leaky_bucket: rate must be in (0, 1]")
    (fun () -> ignore (Leaky_bucket.create_q ~rate:Q.zero ~burst:Q.one));
  Alcotest.check_raises "burst" (Invalid_argument "Leaky_bucket: burst must be >= 1")
    (fun () ->
      ignore (Leaky_bucket.create_q ~rate:(Q.make 1 2) ~burst:(Q.make 1 2)))

(* The defining property: for every greedy trace and every window [s, t],
   injections <= rate * len + burst — checked in exact arithmetic, with no
   rounding slack, over random rational types. *)
let bucket_window_property =
  let open Mac_channel in
  QCheck.Test.make ~name:"bucket_respects_every_window" ~count:100
    QCheck.(quad (int_range 1 32) (int_range 1 32) (int_range 1 7) (int_range 2 32))
    (fun (rn, rd, bi, bd) ->
      let rate = Qrat.make (min rn rd) rd in
      let burst = Qrat.add (Qrat.of_int bi) (Qrat.make 1 bd) in
      let b = Leaky_bucket.create_q ~rate ~burst in
      let horizon = 200 in
      let taken = Array.make horizon 0 in
      for t = 0 to horizon - 1 do
        let g = Leaky_bucket.grant b in
        (* adversarial: sometimes hold back to build credit *)
        let use = if t mod 7 = 3 then 0 else g in
        Leaky_bucket.consume b use;
        taken.(t) <- use;
        Leaky_bucket.advance b
      done;
      let ok = ref true in
      for s = 0 to horizon - 1 do
        let sum = ref 0 in
        for t = s to horizon - 1 do
          sum := !sum + taken.(t);
          let bound = Qrat.add (Qrat.mul_int rate (t - s + 1)) burst in
          if Qrat.compare (Qrat.of_int !sum) bound > 0 then ok := false
        done
      done;
      !ok)

(* ---- Patterns ---- *)

let dummy = View.dummy ~n:8

let no_self_pairs name pattern =
  Alcotest.test_case name `Quick (fun () ->
      for round = 0 to 50 do
        List.iter
          (fun (src, dst) ->
            check_bool "src<>dst" true (src <> dst);
            check_bool "in range" true
              (src >= 0 && src < 8 && dst >= 0 && dst < 8))
          (pattern.Pattern.generate ~round ~budget:3 ~view:dummy)
      done)

let test_pattern_budget () =
  let p = Pattern.uniform ~n:8 ~seed:1 in
  check_int "respects budget" 5
    (List.length (p.Pattern.generate ~round:0 ~budget:5 ~view:dummy));
  check_int "zero budget" 0
    (List.length (p.Pattern.generate ~round:0 ~budget:0 ~view:dummy))

let test_flood_targets_victim () =
  let p = Pattern.flood ~n:8 ~victim:3 in
  let pairs = p.Pattern.generate ~round:0 ~budget:14 ~view:dummy in
  List.iter (fun (src, _) -> check_int "into victim" 3 src) pairs;
  (* destinations cycle over all other stations *)
  let dsts = List.sort_uniq compare (List.map snd pairs) in
  check_int "covers all other stations" 7 (List.length dsts)

let test_pair_flood () =
  let p = Pattern.pair_flood ~src:2 ~dst:5 in
  List.iter
    (fun pr -> Alcotest.(check (pair int int)) "fixed pair" (2, 5) pr)
    (p.Pattern.generate ~round:9 ~budget:4 ~view:dummy);
  Alcotest.check_raises "src=dst rejected"
    (Invalid_argument "Pattern.pair_flood: src = dst") (fun () ->
      ignore (Pattern.pair_flood ~src:1 ~dst:1))

let test_alternating_parity () =
  let p = Pattern.alternating ~src:0 ~dst_odd:1 ~dst_even:2 in
  (match p.Pattern.generate ~round:3 ~budget:1 ~view:dummy with
   | [ (0, 1) ] -> ()
   | _ -> Alcotest.fail "odd round should target dst_odd");
  match p.Pattern.generate ~round:4 ~budget:1 ~view:dummy with
  | [ (0, 2) ] -> ()
  | _ -> Alcotest.fail "even round should target dst_even"

let test_mix_draws_from_both () =
  let p =
    Pattern.mix ~seed:5
      [ (1, Pattern.pair_flood ~src:0 ~dst:1); (1, Pattern.pair_flood ~src:2 ~dst:3) ]
  in
  let seen01 = ref false and seen23 = ref false in
  for round = 0 to 100 do
    List.iter
      (fun pair ->
        if pair = (0, 1) then seen01 := true;
        if pair = (2, 3) then seen23 := true)
      (p.Pattern.generate ~round ~budget:2 ~view:dummy)
  done;
  check_bool "both sources drawn" true (!seen01 && !seen23)

let test_mix_rejects_bad_weights () =
  Alcotest.check_raises "weight" (Invalid_argument "Pattern.mix: weight")
    (fun () ->
      ignore (Pattern.mix ~seed:1 [ (0, Pattern.pair_flood ~src:0 ~dst:1) ]))

let test_duty_cycle_gaps () =
  let p = Pattern.duty_cycle ~busy:3 ~idle:7 (Pattern.pair_flood ~src:0 ~dst:1) in
  for round = 0 to 40 do
    let injections = p.Pattern.generate ~round ~budget:1 ~view:dummy in
    if round mod 10 < 3 then
      check_int (Printf.sprintf "busy round %d" round) 1 (List.length injections)
    else check_int (Printf.sprintf "idle round %d" round) 0 (List.length injections)
  done

let test_one_shot_fires_once () =
  let p = Pattern.one_shot ~at:5 ~src:1 ~dst:2 in
  let total = ref 0 in
  for round = 0 to 20 do
    total := !total + List.length (p.Pattern.generate ~round ~budget:3 ~view:dummy)
  done;
  check_int "exactly one packet" 1 !total;
  match p.Pattern.generate ~round:5 ~budget:3 ~view:dummy with
  | [] -> ()
  | _ -> Alcotest.fail "must not fire twice even when asked again"

let test_to_busiest_follows_queues () =
  let view =
    { dummy with View.queue_size = (fun i -> if i = 4 then 10 else 0) }
  in
  let p = Pattern.to_busiest ~n:8 in
  List.iter
    (fun (src, _) -> check_int "into busiest" 4 src)
    (p.Pattern.generate ~round:0 ~budget:3 ~view)

(* ---- Adversary pacing ---- *)

let count_injections driver ~rounds =
  let total = ref 0 in
  let per_round = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    let view = { dummy with View.round = r } in
    let injected = List.length (Adversary.inject driver ~view) in
    per_round.(r) <- injected;
    total := !total + injected
  done;
  (!total, per_round)

let test_greedy_sustains_rate () =
  let adv =
    Adversary.create_q ~rate:(Q.make 1 2) ~burst:(Q.of_int 4)
      (Pattern.uniform ~n:8 ~seed:2)
  in
  let total, per_round = count_injections (Adversary.start adv) ~rounds:1000 in
  check_bool "close to rate*rounds+burst" true (total >= 495 && total <= 505);
  check_int "initial burst" 4 per_round.(0)

let test_paced_holds_reserve () =
  let adv =
    Adversary.create_q ~rate:(Q.make 1 2) ~burst:(Q.of_int 6)
      ~pacing:(Adversary.Paced { burst_at = Some 100 })
      (Pattern.uniform ~n:8 ~seed:3)
  in
  let total, per_round = count_injections (Adversary.start adv) ~rounds:200 in
  check_int "steady start" 0 per_round.(0);
  check_bool "burst lands at 100" true (per_round.(100) >= 6);
  check_bool "rate+burst total" true (total >= 100 && total <= 107)

let test_injection_never_exceeds_bucket () =
  let adv =
    Adversary.create_q ~rate:(Q.make 3 10) ~burst:(Q.of_int 2)
      (Pattern.flood ~n:8 ~victim:1)
  in
  let total, _ = count_injections (Adversary.start adv) ~rounds:500 in
  check_bool "<= rate*t+burst" true (float_of_int total <= (0.3 *. 500.0) +. 2.0)

(* ---- Saboteurs ---- *)

let test_min_duty_picks_least_on () =
  (* schedule: station i is on iff round mod 8 < i+1 — station 0 has the
     least duty. *)
  let schedule ~me ~round = round mod 8 < me + 1 in
  let choice = Saboteur.min_duty ~n:8 ~horizon:800 ~schedule in
  let pairs =
    (choice.Saboteur.pattern ()).Pattern.generate ~round:0 ~budget:3
      ~view:dummy
  in
  List.iter (fun (src, _) -> check_int "floods min-duty station" 0 src) pairs

let test_min_pair_picks_least_coduty () =
  (* stations 0 and 1 are never on together; all other pairs co-occur. *)
  let schedule ~me ~round =
    match me with
    | 0 -> round mod 2 = 0
    | 1 -> round mod 2 = 1
    | _ -> true
  in
  let choice = Saboteur.min_pair ~n:5 ~horizon:100 ~schedule in
  let pattern = choice.Saboteur.pattern () in
  match pattern.Pattern.generate ~round:0 ~budget:1 ~view:dummy with
  | [ (0, 1) ] -> ()
  | [ (w, z) ] -> Alcotest.failf "expected pair (0,1), got (%d,%d)" w z
  | _ -> Alcotest.fail "expected one injection"

let test_cap2_breaker_injects_into_helper () =
  let choice = Saboteur.cap2_breaker ~n:5 in
  let view = View.dummy ~n:5 in
  (* witness starts at n-1 = 4; helpers are 0 and 1. *)
  (match (choice.Saboteur.pattern ()).Pattern.generate ~round:0 ~budget:1
           ~view with
   | [ (0, 1) ] -> ()
   | _ -> Alcotest.fail "expected injection 0 -> 1");
  Alcotest.check_raises "needs n >= 3"
    (Invalid_argument "Saboteur.cap2_breaker: needs n >= 3") (fun () ->
      ignore (Saboteur.cap2_breaker ~n:2))

let test_cap2_breaker_minimum_n () =
  (* n = 3 is the smallest population with a witness plus two helpers:
     witness 2, helpers 0 and 1. *)
  let choice = Saboteur.cap2_breaker ~n:3 in
  let view = View.dummy ~n:3 in
  (match (choice.Saboteur.pattern ()).Pattern.generate ~round:0 ~budget:1
           ~view with
   | [ (0, 1) ] -> ()
   | _ -> Alcotest.fail "expected injection 0 -> 1 at n = 3");
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Saboteur.cap2_breaker: needs n >= 3") (fun () ->
      ignore (Saboteur.cap2_breaker ~n:0))

let test_cap2_breaker_moves_witness () =
  let pattern = (Saboteur.cap2_breaker ~n:5).Saboteur.pattern () in
  (* witness 4 wakes; station 3 is clean and off -> becomes the witness, so
     helpers stay 0,1. Then 0 wakes too: witness must move again and the
     helpers shift. *)
  let view_wake4 =
    { (View.dummy ~n:5) with View.was_on = (fun i -> i = 4) }
  in
  ignore (pattern.Pattern.generate ~round:1 ~budget:1 ~view:view_wake4);
  let view_wake3 =
    { (View.dummy ~n:5) with View.was_on = (fun i -> i = 3) }
  in
  match pattern.Pattern.generate ~round:2 ~budget:1 ~view:view_wake3 with
  | [ (s1, s2) ] ->
    check_bool "helpers avoid the new witness" true (s1 <> 4 && s2 <> 4 && s1 <> s2)
  | _ -> Alcotest.fail "expected one injection"

(* The integer bucket against a rational restatement of its recurrence,
   b(t+1) = min(rho + beta, b(t) - i(t) + rho), over random types whose
   denominators go up to 1000 (so the lcm lattice is rarely dyadic and
   often near 10^6), rho = 1 included, with fractional bursts. Steps
   interleave spending up to the grant, single refills and skips of up to
   10^12 rounds; after every step the exact level must match the model and
   restoring the level the bucket reports must leave it unchanged. A skip
   of m rounds restates m refills as min(cap, b + m rho), which saturates
   once m rho exceeds the cap. *)
let bucket_model_property =
  let open Mac_channel in
  let gen =
    QCheck.(
      pair
        (quad (int_range 0 9)
           (pair (int_range 1 1000) (int_range 0 999))
           (int_range 1 20)
           (pair (int_range 1 1000) (int_range 0 999)))
        (list_of_size Gen.(1 -- 60)
           (pair (int_range 0 9) (int_range 0 1_000_000_000_000))))
  in
  QCheck.Test.make ~name:"bucket_matches_rational_recurrence" ~count:300 gen
    (fun ((one, (rd, rn), bi, (bd, bn)), steps) ->
      let rate = if one = 0 then Qrat.one else Qrat.make (1 + (rn mod rd)) rd in
      let burst = Qrat.add (Qrat.of_int bi) (Qrat.make (bn mod bd) bd) in
      let cap = Qrat.add rate burst in
      let b = Leaky_bucket.create_q ~rate ~burst in
      let model = ref cap in
      (* rounds after which m refills certainly reach the cap from 0 *)
      let saturating =
        Qrat.floor (Qrat.mul cap (Qrat.make (Qrat.den rate) (Qrat.num rate))) + 1
      in
      let holds () =
        let level = Leaky_bucket.tokens b in
        Leaky_bucket.set_tokens b level;
        Qrat.equal level !model
        && Qrat.equal (Leaky_bucket.tokens b) !model
        && Leaky_bucket.grant b = Qrat.floor !model
      in
      holds ()
      && List.for_all
           (fun (kind, amount) ->
             (match kind with
              | 0 | 1 | 2 ->
                let spend = amount mod (Leaky_bucket.grant b + 1) in
                Leaky_bucket.consume b spend;
                model := Qrat.sub !model (Qrat.of_int spend)
              | 3 | 4 | 5 ->
                Leaky_bucket.advance b;
                model := Qrat.min cap (Qrat.add !model rate)
              | _ ->
                let rounds = if kind = 6 then amount mod 7 else amount in
                Leaky_bucket.skip b ~rounds;
                model :=
                  if rounds >= saturating then cap
                  else Qrat.min cap (Qrat.add !model (Qrat.mul_int rate rounds)));
             holds ())
           steps)

let rejects_level b v =
  match Leaky_bucket.set_tokens b v with
  | () -> false
  | exception Invalid_argument _ -> true

(* Skips of nearly max_int rounds land exactly on the cap, from any level;
   levels outside [0, rho + beta] or off the 1/lcm lattice are rejected
   and leave the level as it was; a type whose lattice leaves the int
   range is refused when the bucket is created. *)
let test_bucket_skip_and_lattice () =
  let module Q = Mac_channel.Qrat in
  check_bool "lattice overflow refused at creation" true
    (match
       Leaky_bucket.create_q ~rate:(Q.make 1 (1 lsl 40))
         ~burst:(Q.add Q.one (Q.make 1 ((1 lsl 40) - 1)))
     with
     | _ -> false
     | exception Q.Overflow _ -> true);
  List.iter
    (fun (rate, burst) ->
      let b = Leaky_bucket.create_q ~rate ~burst in
      let cap = Q.add rate burst in
      let scale =
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        Q.den rate / gcd (Q.den rate) (Q.den burst) * Q.den burst
      in
      List.iter
        (fun rounds ->
          Leaky_bucket.consume b (Leaky_bucket.grant b);
          Leaky_bucket.skip b ~rounds;
          check_bool
            (Printf.sprintf "skip %d lands on the cap %s" rounds (Q.to_string cap))
            true
            (Q.equal (Leaky_bucket.tokens b) cap))
        [ max_int; max_int - 1; max_int / 2; max_int / Q.num rate ];
      Leaky_bucket.consume b 1;
      let level = Leaky_bucket.tokens b in
      List.iter
        (fun (what, v) ->
          check_bool (what ^ " rejected") true (rejects_level b v);
          check_bool (what ^ ": level unchanged") true
            (Q.equal (Leaky_bucket.tokens b) level))
        [ ("negative", Q.make (-1) scale);
          ("above the cap", Q.add cap (Q.make 1 scale));
          ("far above the cap", Q.of_int max_int);
          ("off the lattice", Q.make 1 (scale + 1));
          ("off the lattice, finer", Q.make 1 (2 * scale)) ])
    [ (Q.one, Q.of_int 1);
      (Q.one, Q.make 7 3);
      (Q.make 1 3, Q.make 11 7);
      (Q.make 999 1000, Q.make 1997 997);
      (Q.make 13 100, Q.of_int 2) ]

(* The round-loop operations work on the integer level only: a million
   rounds of grant, consume, advance and skip allocate nothing. *)
let test_bucket_allocation_free () =
  let module Q = Mac_channel.Qrat in
  let b = Leaky_bucket.create_q ~rate:(Q.make 13 100) ~burst:(Q.make 7 3) in
  let w0 = Gc.minor_words () in
  for round = 1 to 1_000_000 do
    Leaky_bucket.consume b (Leaky_bucket.grant b);
    Leaky_bucket.advance b;
    if round mod 1000 = 0 then Leaky_bucket.skip b ~rounds:round
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "no minor words allocated (saw %.0f)" words) true
    (words < 100.0)

(* ---- drift regression ----

   The bucket's grant schedule under paced consumption (at most one packet
   a round, the discipline where the exact token value hits integer
   boundaries every 1/rho rounds), pinned against an integer recurrence
   over the rate's own denominator: tokens are tracked as a numerator, so
   every comparison is exact. The same loop drives a float
   re-implementation of the pre-fix bucket; its schedule must demonstrably
   drift — if it ever stops drifting, the regression test itself has lost
   its teeth. The discipline and the per-rate burst are chosen where the
   float orbit demonstrably drifts: under greedy full-grant consumption —
   and at rho=1/3 with burst 2 even under pacing — the float residue
   settles into a periodic orbit whose errors cancel at every grant
   boundary (round-to-even on the 3*fr tie), hiding the bug. *)

let drift_case ~rate_num ~rate_den ~burst_int () =
  let rounds = 1_000_000 in
  let den = rate_den in
  let cap = rate_num + (burst_int * den) in
  let bucket =
    Leaky_bucket.create_q
      ~rate:(Mac_channel.Qrat.make rate_num rate_den)
      ~burst:(Mac_channel.Qrat.of_int burst_int)
  in
  let tokens = ref cap in
  let fr = float_of_int rate_num /. float_of_int rate_den in
  let fcap = fr +. float_of_int burst_int in
  let ftokens = ref fcap in
  let bucket_mismatch = ref 0 and float_mismatch = ref 0 in
  for _ = 1 to rounds do
    let g = min 1 (!tokens / den) in
    tokens := min cap (!tokens - (g * den) + rate_num);
    let gb = min 1 (Leaky_bucket.grant bucket) in
    Leaky_bucket.consume bucket gb;
    Leaky_bucket.advance bucket;
    if gb <> g then incr bucket_mismatch;
    let gf = min 1 (int_of_float (Float.floor !ftokens)) in
    ftokens := Float.min fcap (!ftokens -. float_of_int gf +. fr);
    if gf <> g then incr float_mismatch
  done;
  check_int
    (Printf.sprintf "rho=%d/%d: bucket grant schedule is exact over %d rounds"
       rate_num rate_den rounds)
    0 !bucket_mismatch;
  check_bool
    (Printf.sprintf
       "rho=%d/%d: the float bucket drifts (the pre-fix bug is observable)"
       rate_num rate_den)
    true
    (!float_mismatch > 0)

let () =
  Alcotest.run "adversary"
    [ ("leaky-bucket",
       [ Alcotest.test_case "initial grant" `Quick test_bucket_initial_grant;
         Alcotest.test_case "consume/refill" `Quick test_bucket_consume_refill;
         Alcotest.test_case "clamp" `Quick test_bucket_clamp;
         Alcotest.test_case "overdraw" `Quick test_bucket_overdraw_rejected;
         Alcotest.test_case "bad args" `Quick test_bucket_bad_args;
         Alcotest.test_case "drift regression rho=1/10" `Quick
           (drift_case ~rate_num:1 ~rate_den:10 ~burst_int:2);
         Alcotest.test_case "drift regression rho=1/3" `Quick
           (drift_case ~rate_num:1 ~rate_den:3 ~burst_int:1);
         QCheck_alcotest.to_alcotest bucket_window_property;
         QCheck_alcotest.to_alcotest bucket_model_property;
         Alcotest.test_case "skip saturates, lattice enforced" `Quick
           test_bucket_skip_and_lattice;
         Alcotest.test_case "allocation-free rounds" `Quick
           test_bucket_allocation_free ]);
      ("patterns",
       [ no_self_pairs "uniform valid" (Pattern.uniform ~n:8 ~seed:1);
         no_self_pairs "flood valid" (Pattern.flood ~n:8 ~victim:3);
         no_self_pairs "round-robin valid" (Pattern.round_robin ~n:8);
         no_self_pairs "hotspot valid" (Pattern.hotspot ~n:8 ~seed:4 ~hot:2 ~bias:0.5);
         Alcotest.test_case "budget" `Quick test_pattern_budget;
         Alcotest.test_case "flood victim" `Quick test_flood_targets_victim;
         Alcotest.test_case "pair flood" `Quick test_pair_flood;
         Alcotest.test_case "alternating" `Quick test_alternating_parity;
         Alcotest.test_case "mix" `Quick test_mix_draws_from_both;
         Alcotest.test_case "mix bad weights" `Quick test_mix_rejects_bad_weights;
         Alcotest.test_case "duty cycle" `Quick test_duty_cycle_gaps;
         Alcotest.test_case "one shot" `Quick test_one_shot_fires_once;
         Alcotest.test_case "to-busiest" `Quick test_to_busiest_follows_queues ]);
      ("pacing",
       [ Alcotest.test_case "greedy" `Quick test_greedy_sustains_rate;
         Alcotest.test_case "paced reserve" `Quick test_paced_holds_reserve;
         Alcotest.test_case "bucket cap" `Quick test_injection_never_exceeds_bucket ]);
      ("saboteurs",
       [ Alcotest.test_case "min-duty" `Quick test_min_duty_picks_least_on;
         Alcotest.test_case "min-pair" `Quick test_min_pair_picks_least_coduty;
         Alcotest.test_case "cap2 helper" `Quick test_cap2_breaker_injects_into_helper;
         Alcotest.test_case "cap2 minimum n" `Quick test_cap2_breaker_minimum_n;
         Alcotest.test_case "cap2 witness moves" `Quick test_cap2_breaker_moves_witness ]) ]
