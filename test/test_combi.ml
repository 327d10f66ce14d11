(* Tests for the combinatorial helpers and the two scheduling structures
   built on them (cycle groups, clique pairs). *)

open Mac_routing

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- basic helpers ---- *)

let test_ceil_div () =
  check_int "exact" 3 (Combi.ceil_div 9 3);
  check_int "round up" 4 (Combi.ceil_div 10 3);
  check_int "zero" 0 (Combi.ceil_div 0 5)

let test_lg () =
  (* lg x = ceil(log2(x+1)) = bit length of x *)
  check_int "lg 0" 0 (Combi.lg 0);
  check_int "lg 1" 1 (Combi.lg 1);
  check_int "lg 2" 2 (Combi.lg 2);
  check_int "lg 3" 2 (Combi.lg 3);
  check_int "lg 4" 3 (Combi.lg 4);
  check_int "lg 7" 3 (Combi.lg 7);
  check_int "lg 8" 4 (Combi.lg 8);
  check_int "lg 65535" 16 (Combi.lg 65535)

let test_binomial () =
  check_int "C(5,2)" 10 (Combi.binomial 5 2);
  check_int "C(8,3)" 56 (Combi.binomial 8 3);
  check_int "C(12,4)" 495 (Combi.binomial 12 4);
  check_int "C(n,0)" 1 (Combi.binomial 7 0);
  check_int "C(n,n)" 1 (Combi.binomial 7 7);
  check_int "out of range" 0 (Combi.binomial 5 9)

let binomial_symmetry =
  QCheck.Test.make ~name:"binomial_symmetry_and_pascal" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 0 16))
    (fun (n, k) ->
      let k = k mod (n + 1) in
      Combi.binomial n k = Combi.binomial n (n - k)
      && (n < 2 || k = 0 || k > n - 1
          || Combi.binomial n k
             = Combi.binomial (n - 1) (k - 1) + Combi.binomial (n - 1) k))

let test_k_subsets_enumeration () =
  let sets = Combi.k_subsets ~n:4 ~k:2 in
  check_int "count" 6 (Array.length sets);
  Alcotest.(check (array (array int)))
    "lexicographic"
    [| [| 0; 1 |]; [| 0; 2 |]; [| 0; 3 |]; [| 1; 2 |]; [| 1; 3 |]; [| 2; 3 |] |]
    sets

let k_subsets_properties =
  QCheck.Test.make ~name:"k_subsets_count_sorted_distinct" ~count:50
    QCheck.(pair (int_range 1 9) (int_range 1 9))
    (fun (n, k) ->
      let k = 1 + (k mod n) in
      let sets = Combi.k_subsets ~n ~k in
      Array.length sets = Combi.binomial n k
      && Array.for_all
           (fun s ->
             Array.length s = k
             && Array.for_all (fun v -> v >= 0 && v < n) s
             &&
             let ok = ref true in
             for i = 0 to k - 2 do
               if s.(i) >= s.(i + 1) then ok := false
             done;
             !ok)
           sets)

let test_subset_pairs () =
  Alcotest.(check (array (pair int int)))
    "pairs of 4"
    [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) |]
    (Combi.subset_pairs ~sets:4)

(* ---- Cycle_groups ---- *)

let test_effective_k_adjustment () =
  check_int "unchanged when 2k <= n+1" 4 (Cycle_groups.effective_k ~n:12 ~k:4);
  check_int "reduced to (n+1)/2" 5 (Cycle_groups.effective_k ~n:9 ~k:7);
  check_int "n=3 k=2" 2 (Cycle_groups.effective_k ~n:3 ~k:2)

let test_cycle_groups_structure () =
  let cg = Cycle_groups.make ~n:12 ~k:4 () in
  check_int "4 groups" 4 (Cycle_groups.group_count cg);
  Alcotest.(check (array int)) "G0" [| 0; 1; 2; 3 |] cg.Cycle_groups.groups.(0);
  Alcotest.(check (array int)) "G3 wraps through 0" [| 9; 10; 11; 0 |]
    cg.Cycle_groups.groups.(3);
  check_int "forward connector of G0" 3 (Cycle_groups.forward_connector cg 0);
  check_int "backward connector of G1" 3 (Cycle_groups.backward_connector cg 1);
  check_int "cycle closes at 0" 0 (Cycle_groups.forward_connector cg 3)

let test_cycle_groups_membership () =
  let cg = Cycle_groups.make ~n:12 ~k:4 () in
  Alcotest.(check (list int)) "connector in two groups" [ 0; 1 ]
    (Cycle_groups.member_groups cg 3);
  Alcotest.(check (list int)) "inner station in one group" [ 0 ]
    (Cycle_groups.member_groups cg 1);
  Alcotest.(check (list int)) "station 0 closes the cycle" [ 0; 3 ]
    (Cycle_groups.member_groups cg 0)

let test_cycle_groups_activity () =
  let cg = Cycle_groups.make ~n:12 ~k:4 () in
  let delta = cg.Cycle_groups.delta in
  check_int "delta = ceil(4(n-1)k/(n-k))" (Combi.ceil_div (4 * 11 * 4) 8) delta;
  check_int "first segment" 0 (Cycle_groups.active_group cg ~round:0);
  check_int "second segment" 1 (Cycle_groups.active_group cg ~round:delta);
  check_int "wraps around" 0 (Cycle_groups.active_group cg ~round:(4 * delta))

let cycle_groups_cover =
  QCheck.Test.make ~name:"cycle_groups_cover_and_cap" ~count:60
    QCheck.(pair (int_range 3 24) (int_range 2 23))
    (fun (n, k) ->
      let k = 2 + (k mod (n - 2)) in
      if k < 2 || k >= n then QCheck.assume_fail ()
      else begin
        let cg = Cycle_groups.make ~n ~k () in
        let eff = cg.Cycle_groups.k in
        (* every station in >= 1 group; group sizes in [2, eff]; consecutive
           groups share exactly the connector *)
        let covered = Array.make n 0 in
        Array.iter
          (fun g -> Array.iter (fun s -> covered.(s) <- covered.(s) + 1) g)
          cg.Cycle_groups.groups;
        let count = Cycle_groups.group_count cg in
        Array.for_all (fun c -> c >= 1 && c <= 2) covered
        && Array.for_all
             (fun g -> Array.length g >= 2 && Array.length g <= eff)
             cg.Cycle_groups.groups
        &&
        let ok = ref true in
        for i = 0 to count - 1 do
          let next = (i + 1) mod count in
          if Cycle_groups.forward_connector cg i
             <> Cycle_groups.backward_connector cg next
          then ok := false
        done;
        !ok
      end)

(* ---- Clique_pairs ---- *)

let test_clique_effective_k () =
  check_int "kept" 4 (Clique_pairs.effective_k ~n:12 ~k:4);
  check_int "k must divide 2n" 2 (Clique_pairs.effective_k ~n:9 ~k:4);
  check_int "capped at 2n/3" 8 (Clique_pairs.effective_k ~n:12 ~k:10);
  check_int "always at least 2" 2 (Clique_pairs.effective_k ~n:5 ~k:3)

let test_clique_structure () =
  let cp = Clique_pairs.make ~n:12 ~k:4 in
  check_int "set size" 2 cp.Clique_pairs.set_size;
  check_int "sets" 6 cp.Clique_pairs.sets;
  check_int "pairs" 15 (Clique_pairs.pair_count cp);
  Alcotest.(check (array int)) "members of pair (0,1)" [| 0; 1; 2; 3 |]
    cp.Clique_pairs.members.(0);
  check_int "station set" 2 (Clique_pairs.set_of_station cp 5);
  check_int "activity cycles" 1 (Clique_pairs.active_pair cp ~round:16)

let test_clique_membership () =
  let cp = Clique_pairs.make ~n:12 ~k:4 in
  let pairs = Clique_pairs.member_pairs cp 0 in
  check_int "each station in sets-1 pairs" 5 (List.length pairs);
  List.iter
    (fun p -> check_bool "member" true (Clique_pairs.in_pair cp ~pair:p 0))
    pairs

let clique_pairs_cover =
  QCheck.Test.make ~name:"clique_pairs_cover_all_station_pairs" ~count:40
    QCheck.(pair (int_range 3 18) (int_range 2 17))
    (fun (n, k) ->
      let k = 2 + (k mod (n - 2)) in
      if k < 2 || k >= n then QCheck.assume_fail ()
      else begin
        let cp = Clique_pairs.make ~n ~k in
        (* any two distinct stations appear together in some pair - the
           property that makes k-Clique a correct direct router *)
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = a + 1 to n - 1 do
            let together = ref false in
            for p = 0 to Clique_pairs.pair_count cp - 1 do
              if Clique_pairs.in_pair cp ~pair:p a && Clique_pairs.in_pair cp ~pair:p b
              then together := true
            done;
            (* stations of the same set never form a pair alone but any pair
               containing the set contains both *)
            if not !together then ok := false
          done
        done;
        !ok
      end)

(* Rotation's closed forms against a walk over every round: the count of
   a slot's active rounds in a range, the rounds [iter_active] reports
   (each active slot once, with its count), and the inverse [nth_from]. *)
let rotation_closed_forms =
  QCheck.Test.make ~name:"rotation closed forms = round walk" ~count:300
    QCheck.(
      quad (int_range 1 6) (int_range 1 5) (int_range 0 60) (int_range 0 40))
    (fun (slots, width, from, len) ->
      let t = Mac_routing.Rotation.make ~slots ~width in
      let until = from + len in
      let walk slot =
        let c = ref 0 in
        for round = from to until - 1 do
          if round / width mod slots = slot then incr c
        done;
        !c
      in
      let reported = Array.make slots 0 in
      Mac_routing.Rotation.iter_active t ~from ~until
        (fun () () slot c -> reported.(slot) <- reported.(slot) + c)
        () ();
      let nth_ok slot =
        let round = ref from and ok = ref true in
        for j = 0 to 2 * slots do
          while !round / width mod slots <> slot do
            incr round
          done;
          if Mac_routing.Rotation.nth_from t ~slot ~round:from j <> !round then
            ok := false;
          incr round
        done;
        !ok
      in
      List.for_all
        (fun slot ->
          Mac_routing.Rotation.count_in t ~slot ~from ~until = walk slot
          && reported.(slot) = walk slot
          && nth_ok slot)
        (List.init slots Fun.id))

let () =
  Alcotest.run "combi"
    [ ("helpers",
       [ Alcotest.test_case "ceil_div" `Quick test_ceil_div;
         Alcotest.test_case "lg" `Quick test_lg;
         Alcotest.test_case "binomial" `Quick test_binomial;
         QCheck_alcotest.to_alcotest binomial_symmetry;
         Alcotest.test_case "k_subsets enum" `Quick test_k_subsets_enumeration;
         QCheck_alcotest.to_alcotest k_subsets_properties;
         Alcotest.test_case "subset pairs" `Quick test_subset_pairs;
         QCheck_alcotest.to_alcotest rotation_closed_forms ]);
      ("cycle-groups",
       [ Alcotest.test_case "effective k" `Quick test_effective_k_adjustment;
         Alcotest.test_case "structure" `Quick test_cycle_groups_structure;
         Alcotest.test_case "membership" `Quick test_cycle_groups_membership;
         Alcotest.test_case "activity" `Quick test_cycle_groups_activity;
         QCheck_alcotest.to_alcotest cycle_groups_cover ]);
      ("clique-pairs",
       [ Alcotest.test_case "effective k" `Quick test_clique_effective_k;
         Alcotest.test_case "structure" `Quick test_clique_structure;
         Alcotest.test_case "membership" `Quick test_clique_membership;
         QCheck_alcotest.to_alcotest clique_pairs_cover ]) ]
