(* Exact rational arithmetic: normalisation, ordering, the floor used by
   the admission grant, float round-trips, and parsing. *)

open Mac_channel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let q = Alcotest.testable Qrat.pp Qrat.equal

let test_normalisation () =
  Alcotest.check q "2/4 = 1/2" (Qrat.make 1 2) (Qrat.make 2 4);
  Alcotest.check q "sign moves up" (Qrat.make (-1) 2) (Qrat.make 1 (-2));
  Alcotest.check q "zero" Qrat.zero (Qrat.make 0 17);
  check_int "num" 3 (Qrat.num (Qrat.make 9 15));
  check_int "den" 5 (Qrat.den (Qrat.make 9 15));
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Qrat.make: zero denominator") (fun () ->
      ignore (Qrat.make 1 0))

let test_arithmetic () =
  Alcotest.check q "1/10 + 1/10" (Qrat.make 1 5)
    (Qrat.add (Qrat.make 1 10) (Qrat.make 1 10));
  Alcotest.check q "1/2 - 1/3" (Qrat.make 1 6)
    (Qrat.sub (Qrat.make 1 2) (Qrat.make 1 3));
  Alcotest.check q "2/3 * 3/4" (Qrat.make 1 2)
    (Qrat.mul (Qrat.make 2 3) (Qrat.make 3 4));
  Alcotest.check q "mul_int" (Qrat.make 3 2) (Qrat.mul_int (Qrat.make 1 2) 3);
  check_int "sign neg" (-1) (Qrat.sign (Qrat.make (-1) 7));
  check_bool "is_integer 4/2" true (Qrat.is_integer (Qrat.make 4 2));
  check_bool "is_integer 1/2" false (Qrat.is_integer (Qrat.make 1 2))

let test_floor () =
  check_int "floor 3/2" 1 (Qrat.floor (Qrat.make 3 2));
  check_int "floor 2" 2 (Qrat.floor (Qrat.of_int 2));
  check_int "floor -1/2" (-1) (Qrat.floor (Qrat.make (-1) 2));
  check_int "floor -3" (-3) (Qrat.floor (Qrat.of_int (-3)))

let test_compare () =
  check_bool "1/3 < 1/2" true (Qrat.compare (Qrat.make 1 3) (Qrat.make 1 2) < 0);
  check_bool "min" true (Qrat.equal (Qrat.make 1 3) (Qrat.min (Qrat.make 1 3) (Qrat.make 1 2)));
  check_bool "max" true (Qrat.equal (Qrat.make 1 2) (Qrat.max (Qrat.make 1 3) (Qrat.make 1 2)))

let test_of_float () =
  Alcotest.check q "0.1 is exactly 1/10" (Qrat.make 1 10) (Qrat.of_float 0.1);
  Alcotest.check q "0.5" (Qrat.make 1 2) (Qrat.of_float 0.5);
  Alcotest.check q "0.35" (Qrat.make 7 20) (Qrat.of_float 0.35);
  Alcotest.check q "1/3 round-trips" (Qrat.make 1 3)
    (Qrat.of_float (Qrat.to_float (Qrat.make 1 3)));
  Alcotest.check q "negative" (Qrat.make (-1) 10) (Qrat.of_float (-0.1));
  Alcotest.check q "integer" (Qrat.of_int 42) (Qrat.of_float 42.0);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Qrat.of_float: not finite") (fun () ->
      ignore (Qrat.of_float Float.nan))

let test_overflow () =
  check_bool "overflow raises" true
    (try
       ignore (Qrat.add (Qrat.of_int max_int) Qrat.one);
       false
     with Qrat.Overflow _ -> true)

let test_strings () =
  let ok s expected =
    match Qrat.of_string s with
    | Ok v -> Alcotest.check q s expected v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "1/10" (Qrat.make 1 10);
  ok "-2/4" (Qrat.make (-1) 2);
  ok " 3 " (Qrat.of_int 3);
  ok "0.35" (Qrat.make 7 20);
  check_bool "1/0 rejected" true (Result.is_error (Qrat.of_string "1/0"));
  check_bool "empty rejected" true (Result.is_error (Qrat.of_string ""));
  check_bool "garbage rejected" true (Result.is_error (Qrat.of_string "abc"));
  (* no native-int rational is that large or that small; a denominator
     of min_int cannot be normalised *)
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true (Result.is_error (Qrat.of_string s)))
    [ "1e300"; "1e19"; "1e-300"; "99999999999999999999";
      "1/-4611686018427387904" ];
  Alcotest.(check string) "to_string frac" "1/10" (Qrat.to_string (Qrat.make 1 10));
  Alcotest.(check string) "to_string int" "3" (Qrat.to_string (Qrat.of_int 3))

(* ---- properties over small rationals ---- *)

let small_rat =
  QCheck.(
    map
      (fun (n, d) -> Qrat.make (n - 32) d)
      (pair (int_range 0 64) (int_range 1 24)))

let prop_add_commutative =
  QCheck.Test.make ~name:"add_commutative" ~count:500
    (QCheck.pair small_rat small_rat)
    (fun (a, b) -> Qrat.equal (Qrat.add a b) (Qrat.add b a))

let prop_add_associative =
  QCheck.Test.make ~name:"add_associative" ~count:500
    (QCheck.triple small_rat small_rat small_rat)
    (fun (a, b, c) ->
      Qrat.equal (Qrat.add a (Qrat.add b c)) (Qrat.add (Qrat.add a b) c))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare_antisymmetric" ~count:500
    (QCheck.pair small_rat small_rat)
    (fun (a, b) -> Stdlib.compare (Qrat.compare a b) 0 = - (Stdlib.compare (Qrat.compare b a) 0))

let prop_floor_bounds =
  QCheck.Test.make ~name:"floor_bounds" ~count:500 small_rat (fun a ->
      let f = Qrat.of_int (Qrat.floor a) in
      Qrat.compare f a <= 0 && Qrat.compare a (Qrat.add f Qrat.one) < 0)

let prop_float_round_trip =
  QCheck.Test.make ~name:"of_float_round_trips" ~count:500
    QCheck.(float_range 0.001 1000.0)
    (fun f -> Qrat.to_float (Qrat.of_float f) = f)

let prop_of_float_simplest =
  (* for a small rational's own float, of_float recovers it exactly *)
  QCheck.Test.make ~name:"of_float_recovers_small_rationals" ~count:500
    QCheck.(pair (int_range 1 64) (int_range 1 64))
    (fun (n, d) ->
      let r = Qrat.make n d in
      Qrat.equal r (Qrat.of_float (Qrat.to_float r)))

let () =
  Alcotest.run "qrat"
    [ ("units",
       [ Alcotest.test_case "normalisation" `Quick test_normalisation;
         Alcotest.test_case "arithmetic" `Quick test_arithmetic;
         Alcotest.test_case "floor" `Quick test_floor;
         Alcotest.test_case "compare" `Quick test_compare;
         Alcotest.test_case "of_float" `Quick test_of_float;
         Alcotest.test_case "overflow" `Quick test_overflow;
         Alcotest.test_case "strings" `Quick test_strings ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_add_commutative; prop_add_associative;
           prop_compare_antisymmetric; prop_floor_bounds;
           prop_float_round_trip; prop_of_float_simplest ]) ]
