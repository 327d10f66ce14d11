(* Unit and property tests for the mac_channel substrate: deterministic RNG,
   packets, messages and control-bit accounting, packet queues, and the
   trace ring buffer. *)

open Mac_channel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  check_bool "streams differ" true (!same < 8)

let test_rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  let vs = List.init 10 (fun _ -> Rng.int child 100) in
  let vs' = List.init 10 (fun _ -> Rng.int parent 100) in
  check_bool "split streams differ from parent" true (vs <> vs')

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = Rng.float rng 1.0 in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:13 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let rng_uniformity =
  QCheck.Test.make ~name:"rng_int_covers_all_residues" ~count:20
    QCheck.(int_range 2 12)
    (fun bound ->
      let rng = Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 200 * bound do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ---- Packet / Message ---- *)

let packet ~id ~dst = Packet.make ~id ~src:0 ~dst ~injected_at:0

let test_packet_order () =
  let a = packet ~id:1 ~dst:2 and b = packet ~id:2 ~dst:2 in
  check_bool "compare by id" true (Packet.compare a b < 0);
  check_bool "equal on same id" true
    (Packet.equal a (Packet.make ~id:1 ~src:9 ~dst:3 ~injected_at:5))

let test_message_classes () =
  let p = packet ~id:1 ~dst:2 in
  check_bool "plain" true (Message.is_plain (Message.packet_only p));
  check_bool "plain not light" false (Message.is_light (Message.packet_only p));
  check_bool "light" true (Message.is_light (Message.light [ Message.Flag true ]));
  check_bool "controlled packet not plain" false
    (Message.is_plain (Message.make ~packet:p [ Message.Flag true ]))

let test_control_bits () =
  check_int "flag is 1 bit" 1 (Message.control_bits (Message.light [ Message.Flag true ]));
  check_int "count 0 is 1 bit" 1 (Message.control_bits (Message.light [ Message.Count 0 ]));
  check_int "count 5 is 3 bits" 3 (Message.control_bits (Message.light [ Message.Count 5 ]));
  check_int "count 255 is 8 bits" 8
    (Message.control_bits (Message.light [ Message.Count 255 ]));
  check_int "empty schedule has a length header" 1
    (Message.control_bits (Message.light [ Message.Schedule [] ]));
  check_bool "schedule grows with entries" true
    (Message.control_bits (Message.light [ Message.Schedule [ 3; 5; 9 ] ])
     > Message.control_bits (Message.light [ Message.Schedule [ 3 ] ]))

(* ---- Pqueue ---- *)

let test_pqueue_fifo_order () =
  let q = Pqueue.create ~n:4 in
  List.iter (fun id -> Pqueue.add q (packet ~id ~dst:1)) [ 5; 3; 9 ];
  Alcotest.(check (list int))
    "arrival order, not id order" [ 5; 3; 9 ]
    (List.map (fun (p : Packet.t) -> p.id) (Pqueue.to_list q))

let test_pqueue_remove () =
  let q = Pqueue.create ~n:4 in
  let p1 = packet ~id:1 ~dst:2 and p2 = packet ~id:2 ~dst:3 in
  Pqueue.add q p1;
  Pqueue.add q p2;
  check_bool "removes present" true (Pqueue.remove q p1);
  check_bool "absent returns false" false (Pqueue.remove q p1);
  check_int "size tracks" 1 (Pqueue.size q);
  check_int "dest count tracks" 0 (Pqueue.count_to q 2);
  check_int "other dest untouched" 1 (Pqueue.count_to q 3)

let test_pqueue_duplicate_rejected () =
  let q = Pqueue.create ~n:4 in
  Pqueue.add q (packet ~id:1 ~dst:2);
  Alcotest.check_raises "duplicate id" (Invalid_argument "Pqueue.add: duplicate packet id")
    (fun () -> Pqueue.add q (packet ~id:1 ~dst:3))

let test_pqueue_oldest_queries () =
  let q = Pqueue.create ~n:4 in
  List.iter (fun (id, dst) -> Pqueue.add q (packet ~id ~dst))
    [ (1, 2); (2, 3); (3, 2); (4, 1) ];
  let id_of = function Some (p : Packet.t) -> p.id | None -> -1 in
  check_int "oldest" 1 (id_of (Pqueue.oldest q));
  check_int "oldest_to 3" 2 (id_of (Pqueue.oldest_to q 3));
  check_int "oldest_to 1" 4 (id_of (Pqueue.oldest_to q 1));
  check_int "oldest_to empty dest" (-1) (id_of (Pqueue.oldest_to q 0));
  check_int "oldest_such" 3
    (id_of (Pqueue.oldest_such q (fun p -> p.id > 2 && p.dst = 2)));
  check_int "oldest_to_such" 3
    (id_of (Pqueue.oldest_to_such q 2 (fun p -> p.id > 1)))

let test_pqueue_readdition_moves_to_tail () =
  let q = Pqueue.create ~n:4 in
  let p1 = packet ~id:1 ~dst:2 in
  Pqueue.add q p1;
  Pqueue.add q (packet ~id:2 ~dst:2);
  ignore (Pqueue.remove q p1);
  Pqueue.add q p1;
  Alcotest.(check (list int)) "adoption order" [ 2; 1 ]
    (List.map (fun (p : Packet.t) -> p.id) (Pqueue.to_list q))

(* [iter_suffix q pred] visits exactly the maximal arrival-order suffix
   whose packets satisfy [pred], oldest first, and reads no packet before
   the one that ends the walk. *)
let test_pqueue_iter_suffix () =
  let suffix q pred =
    let seen = ref [] in
    Pqueue.iter_suffix q pred ~f:(fun (p : Packet.t) -> seen := p.id :: !seen);
    List.rev !seen
  in
  let ids = Alcotest.(check (list int)) in
  let q = Pqueue.create ~n:4 in
  ids "empty queue" [] (suffix q (fun _ -> true));
  List.iter (fun (id, dst) -> Pqueue.add q (packet ~id ~dst))
    [ (1, 2); (2, 3); (3, 2); (4, 1); (5, 3) ];
  ids "false at the newest" [] (suffix q (fun p -> p.id <> 5));
  ids "true everywhere: the whole queue" [ 1; 2; 3; 4; 5 ]
    (suffix q (fun _ -> true));
  ids "stops at the newest failure" [ 4; 5 ] (suffix q (fun p -> p.id <> 3));
  let read = ref [] in
  ignore
    (suffix q (fun p ->
         read := p.id :: !read;
         p.id > 3));
  ids "reads the run and the packet before it" [ 5; 4; 3 ] (List.rev !read);
  let p2 = packet ~id:2 ~dst:3 in
  check_bool "removed" true (Pqueue.remove q p2);
  Pqueue.add q p2;
  ids "a re-added packet is the newest" [ 3; 4; 5; 2 ]
    (suffix q (fun p -> p.id <> 1));
  ids "after re-addition, everything" [ 1; 3; 4; 5; 2 ]
    (suffix q (fun _ -> true));
  ids "the re-added packet alone" [ 2 ] (suffix q (fun p -> p.id < 3))

let test_pqueue_drain () =
  let q = Pqueue.create ~n:4 in
  List.iter (fun (id, dst) -> Pqueue.add q (packet ~id ~dst))
    [ (1, 2); (2, 3); (3, 2); (4, 1) ];
  let drained = Pqueue.drain q in
  Alcotest.(check (list int))
    "arrival order" [ 1; 2; 3; 4 ]
    (List.map (fun (p : Packet.t) -> p.id) drained);
  check_int "empty after drain" 0 (Pqueue.size q);
  Alcotest.(check (list int)) "to_list empty" []
    (List.map (fun (p : Packet.t) -> p.id) (Pqueue.to_list q));
  List.iter (fun d -> check_int "dest count zero" 0 (Pqueue.count_to q d))
    [ 0; 1; 2; 3 ];
  check_bool "oldest is gone" true (Pqueue.oldest q = None);
  (* the queue is reusable: re-adding a drained packet is not a duplicate *)
  Pqueue.add q (packet ~id:1 ~dst:2);
  Pqueue.add q (packet ~id:9 ~dst:0);
  Alcotest.(check (list int)) "reusable" [ 1; 9 ]
    (List.map (fun (p : Packet.t) -> p.id) (Pqueue.to_list q))

(* Property: [drain] is exactly [to_list] followed by removing each listed
   packet — same returned packets, same final state, even when the queue is
   refilled and drained again afterwards. *)
let pqueue_drain_equiv =
  QCheck.Test.make ~name:"pqueue_drain_equals_to_list_then_removals" ~count:200
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (dsts1, dsts2) ->
      let q_drain = Pqueue.create ~n:6 and q_model = Pqueue.create ~n:6 in
      let next = ref 0 in
      let fill dsts =
        List.iter
          (fun dst ->
            let id = !next in
            incr next;
            Pqueue.add q_drain (packet ~id ~dst);
            Pqueue.add q_model (packet ~id ~dst))
          dsts
      in
      let ids (l : Packet.t list) = List.map (fun (p : Packet.t) -> p.id) l in
      let drain_via_model q =
        let listed = Pqueue.to_list q in
        List.iter (fun p -> ignore (Pqueue.remove q p)) listed;
        listed
      in
      let same_state () =
        ids (Pqueue.to_list q_drain) = ids (Pqueue.to_list q_model)
        && Pqueue.size q_drain = Pqueue.size q_model
        && List.for_all
             (fun d -> Pqueue.count_to q_drain d = Pqueue.count_to q_model d)
             [ 0; 1; 2; 3; 4; 5 ]
      in
      fill dsts1;
      let first_ok =
        ids (Pqueue.drain q_drain) = ids (drain_via_model q_model)
        && same_state ()
      in
      (* refill and drain again: drained queues must stay interchangeable *)
      fill dsts2;
      first_ok
      && same_state ()
      && ids (Pqueue.drain q_drain) = ids (drain_via_model q_model)
      && same_state ())

(* Model-based property: a queue behaves like a list of packets in arrival
   order under a random sequence of adds, removes and re-additions. After
   every step each query is compared with the model: membership, removal
   of absent packets, size and per-destination counts, oldest packets
   overall and per destination, the first matches of an id predicate
   (overall and per destination), the newest run matching it, fold and
   iter order, and the touched
   destination's whole order — so a packet removed and added again must
   reach the tail of both the arrival order and its destination's order.
   Destinations are drawn from 0..5 (many packets per destination) or
   from 0..99 999 (n = 10⁵, almost every destination distinct). *)
let pqueue_model =
  QCheck.Test.make ~name:"pqueue_matches_list_model" ~count:200
    QCheck.(
      pair bool
        (list_of_size Gen.(0 -- 120)
           (pair (int_range 0 50) (int_range 0 99_999))))
    (fun (wide, ops) ->
      let n = if wide then 100_000 else 6 in
      let q = Pqueue.create ~n in
      let model = ref [] in
      let removed = ref [] in
      let next = ref 0 in
      let ids (l : Packet.t list) = List.map (fun (p : Packet.t) -> p.id) l in
      let id_of = function Some (p : Packet.t) -> p.id | None -> -1 in
      let first pred l =
        match List.find_opt pred l with Some (p : Packet.t) -> p.id | None -> -1
      in
      (* The destination's order, read back through the query the
         algorithms use: repeatedly the oldest packet to [d] not yet seen. *)
      let dest_order d =
        let rec go seen =
          match
            Pqueue.oldest_to_such q d (fun p -> not (List.mem p.Packet.id seen))
          with
          | Some p -> go (p.Packet.id :: seen)
          | None -> List.rev seen
        in
        go []
      in
      let consistent ~touched ~modulus =
        let m = !model in
        let to_d d (p : Packet.t) = p.dst = d in
        let pred (p : Packet.t) = p.id mod modulus = 0 in
        let never = Packet.make ~id:!next ~src:0 ~dst:touched ~injected_at:0 in
        ids (Pqueue.to_list q) = ids m
        && Pqueue.size q = List.length m
        && Pqueue.is_empty q = (m = [])
        && List.for_all (Pqueue.mem q) m
        && (not (Pqueue.mem q never))
        && (not (Pqueue.remove q never))
        && List.for_all (fun p -> not (Pqueue.mem q p)) !removed
        && (match !removed with p :: _ -> not (Pqueue.remove q p) | [] -> true)
        && id_of (Pqueue.oldest q) = first (fun _ -> true) m
        && id_of (Pqueue.oldest_such q pred) = first pred m
        && ids (List.rev (Pqueue.fold q ~init:[] ~f:(fun acc p -> p :: acc)))
           = ids m
        && (let seen = ref [] in
            Pqueue.iter q ~f:(fun p -> seen := p :: !seen);
            ids (List.rev !seen) = ids m)
        && (let seen = ref [] in
            Pqueue.iter_suffix q pred ~f:(fun p -> seen := p :: !seen);
            let rec newest_run acc = function
              | p :: rest when pred p -> newest_run (p :: acc) rest
              | _ -> acc
            in
            ids (List.rev !seen) = ids (newest_run [] (List.rev m)))
        && List.for_all
             (fun d ->
               Pqueue.count_to q d = List.length (List.filter (to_d d) m)
               && id_of (Pqueue.oldest_to q d) = first (to_d d) m
               && id_of (Pqueue.oldest_to_such q d pred)
                  = first (fun p -> to_d d p && pred p) m)
             (touched :: List.map (fun (p : Packet.t) -> p.dst) m)
        && dest_order touched = ids (List.filter (to_d touched) m)
      in
      List.for_all
        (fun (choice, dst) ->
          let dst = dst mod n in
          let touched =
            if choice < 30 || !model = [] then begin
              let p = Packet.make ~id:!next ~src:0 ~dst ~injected_at:0 in
              incr next;
              Pqueue.add q p;
              model := !model @ [ p ];
              dst
            end
            else begin
              let victim = List.nth !model (choice mod List.length !model) in
              let others =
                List.filter (fun p -> not (Packet.equal p victim)) !model
              in
              let present = Pqueue.remove q victim in
              if choice < 40 then begin
                (* re-addition: the packet becomes the newest *)
                Pqueue.add q victim;
                model := others @ [ victim ]
              end
              else begin
                model := others;
                removed := victim :: !removed
              end;
              if not present then -1 else victim.Packet.dst
            end
          in
          touched >= 0 && consistent ~touched ~modulus:(2 + (choice mod 3)))
        ops)

(* [dests] feeds the sparse engine's next_active queries: it must list
   exactly the destinations with at least one queued packet, ascending,
   through any add/remove interleaving. *)
let pqueue_dests =
  QCheck.Test.make ~name:"pqueue_dests_matches_list_model" ~count:200
    QCheck.(list (pair (int_range 0 50) (int_range 0 5)))
    (fun ops ->
      let q = Pqueue.create ~n:6 in
      let model = ref [] in
      let next = ref 0 in
      List.iter
        (fun (choice, dst) ->
          if choice < 40 || !model = [] then begin
            let p = Packet.make ~id:!next ~src:0 ~dst ~injected_at:0 in
            incr next;
            Pqueue.add q p;
            model := !model @ [ p ]
          end
          else begin
            let idx = choice mod List.length !model in
            let victim = List.nth !model idx in
            ignore (Pqueue.remove q victim);
            model := List.filter (fun p -> not (Packet.equal p victim)) !model
          end)
        ops;
      let expected =
        List.sort_uniq compare
          (List.map (fun (p : Packet.t) -> p.dst) !model)
      in
      Pqueue.dests q = expected)

(* ---- Trace ---- *)

let test_trace_ring () =
  let t = Trace.create ~capacity:3 () in
  List.iter (fun i -> Trace.event t ~round:i (string_of_int i)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list (pair int string)))
    "keeps last 3, oldest first"
    [ (3, "3"); (4, "4"); (5, "5") ]
    (Trace.dump t)

let test_trace_wraparound_ordering () =
  let t = Trace.create ~capacity:4 () in
  (* exactly at capacity: nothing dropped *)
  List.iter (fun i -> Trace.event t ~round:i (string_of_int i)) [ 0; 1; 2; 3 ];
  Alcotest.(check (list (pair int string)))
    "full ring, oldest first"
    [ (0, "0"); (1, "1"); (2, "2"); (3, "3") ]
    (Trace.dump t);
  (* several wraps: only the tail survives, still oldest first *)
  List.iter (fun i -> Trace.event t ~round:i (string_of_int i))
    [ 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check (list (pair int string)))
    "after wraparound"
    [ (7, "7"); (8, "8"); (9, "9"); (10, "10") ]
    (Trace.dump t)

(* ---- Algorithm describe ---- *)

let test_describe () =
  Alcotest.(check string) "table-1 notation" "orchestra [NObl-Gen-Dir]"
    (Algorithm.describe (module Mac_routing.Orchestra));
  Alcotest.(check string) "plain packet indirect" "adjust-window [NObl-PP-Ind]"
    (Algorithm.describe (module Mac_routing.Adjust_window))

let () =
  Alcotest.run "channel"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "float range" `Quick test_rng_float_range;
         Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
         QCheck_alcotest.to_alcotest rng_uniformity ]);
      ("packet-message",
       [ Alcotest.test_case "packet order" `Quick test_packet_order;
         Alcotest.test_case "message classes" `Quick test_message_classes;
         Alcotest.test_case "control bits" `Quick test_control_bits ]);
      ("pqueue",
       [ Alcotest.test_case "fifo order" `Quick test_pqueue_fifo_order;
         Alcotest.test_case "remove" `Quick test_pqueue_remove;
         Alcotest.test_case "duplicate rejected" `Quick test_pqueue_duplicate_rejected;
         Alcotest.test_case "oldest queries" `Quick test_pqueue_oldest_queries;
         Alcotest.test_case "re-addition" `Quick test_pqueue_readdition_moves_to_tail;
         Alcotest.test_case "iter_suffix" `Quick test_pqueue_iter_suffix;
         Alcotest.test_case "drain" `Quick test_pqueue_drain;
         QCheck_alcotest.to_alcotest pqueue_drain_equiv;
         QCheck_alcotest.to_alcotest pqueue_model;
         QCheck_alcotest.to_alcotest pqueue_dests ]);
      ("trace",
       [ Alcotest.test_case "ring" `Quick test_trace_ring;
         Alcotest.test_case "wraparound ordering" `Quick
           test_trace_wraparound_ordering ]);
      ("algorithm", [ Alcotest.test_case "describe" `Quick test_describe ]) ]
