(* Tests for the broadcast substrate: the replicated token structures and
   the three cited algorithms (RRW, OF-RRW, MBTF) run end-to-end through the
   engine. MBTF's stability at injection rate 1 is the property k-Subsets'
   optimality rests on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Token_ring ---- *)

let test_ring_advances_on_silence () =
  let r = Mac_broadcast.Token_ring.create ~members:[| 3; 5; 9 |] in
  check_int "starts at first member" 3 (Mac_broadcast.Token_ring.holder r);
  Mac_broadcast.Token_ring.note_heard r;
  check_int "heard keeps holder" 3 (Mac_broadcast.Token_ring.holder r);
  Mac_broadcast.Token_ring.note_silence r;
  check_int "silence advances" 5 (Mac_broadcast.Token_ring.holder r)

let test_ring_phase_wraps () =
  let r = Mac_broadcast.Token_ring.create ~members:[| 1; 2 |] in
  check_int "phase 0" 0 (Mac_broadcast.Token_ring.phase r);
  Mac_broadcast.Token_ring.note_silence r;
  check_int "mid cycle" 0 (Mac_broadcast.Token_ring.phase r);
  Mac_broadcast.Token_ring.note_silence r;
  check_int "wrapped" 1 (Mac_broadcast.Token_ring.phase r);
  check_int "back to head" 1 (Mac_broadcast.Token_ring.holder r)

let test_ring_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Token_ring.create: empty")
    (fun () -> ignore (Mac_broadcast.Token_ring.create ~members:[||]))

(* ---- Mbtf_list ---- *)

let test_mbtf_list_move_to_front () =
  let l = Mac_broadcast.Mbtf_list.create ~members:[| 0; 1; 2; 3 |] in
  Mac_broadcast.Mbtf_list.note_silence l;
  Mac_broadcast.Mbtf_list.note_silence l;
  check_int "token at 2" 2 (Mac_broadcast.Mbtf_list.holder l);
  Mac_broadcast.Mbtf_list.note_heard_big l;
  Alcotest.(check (array int)) "2 moved to front" [| 2; 0; 1; 3 |]
    (Mac_broadcast.Mbtf_list.order l);
  check_int "keeps token" 2 (Mac_broadcast.Mbtf_list.holder l);
  Mac_broadcast.Mbtf_list.note_heard_small l;
  check_int "then passes to old front" 0 (Mac_broadcast.Mbtf_list.holder l)

let test_mbtf_list_front_big_is_noop_move () =
  let l = Mac_broadcast.Mbtf_list.create ~members:[| 0; 1 |] in
  Mac_broadcast.Mbtf_list.note_heard_big l;
  Alcotest.(check (array int)) "unchanged" [| 0; 1 |] (Mac_broadcast.Mbtf_list.order l);
  check_int "keeps token" 0 (Mac_broadcast.Mbtf_list.holder l)

(* ---- End-to-end broadcast runs ---- *)

let run ?(faults = None) ?(strict = true) ~algorithm ~n ~rate ~burst ~pattern
    ~rounds ~drain () =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.of_float rate)
      ~burst:(Mac_channel.Qrat.of_float burst) pattern
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      drain_limit = drain; check_schedule = true; strict; faults }
  in
  Mac_sim.Engine.run ~config ~algorithm ~n ~k:n ~adversary ~rounds ()

let stable (s : Mac_sim.Metrics.summary) =
  (Mac_sim.Stability.classify s.queue_series).verdict = Mac_sim.Stability.Stable

let test_mbtf_stable_at_rate_one () =
  List.iter
    (fun (seed, pattern) ->
      let s =
        run ~algorithm:(module Mac_broadcast.Mbtf) ~n:8 ~rate:1.0 ~burst:4.0
          ~pattern ~rounds:40_000 ~drain:0 ()
      in
      check_bool (Printf.sprintf "stable (case %d)" seed) true (stable s);
      check_bool "queues bounded well below horizon" true (s.max_total_queue < 500);
      check_bool "clean" true (Mac_sim.Metrics.no_violations s))
    [ (0, Mac_adversary.Pattern.uniform ~n:8 ~seed:1);
      (1, Mac_adversary.Pattern.flood ~n:8 ~victim:2);
      (2, Mac_adversary.Pattern.round_robin ~n:8) ]

let test_mbtf_few_silent_rounds_under_load () =
  (* The move-big-to-front rule means a loaded system wastes almost no
     rounds: at rate 1 silence must stay a tiny fraction. *)
  let s =
    run ~algorithm:(module Mac_broadcast.Mbtf) ~n:8 ~rate:1.0 ~burst:4.0
      ~pattern:(Mac_adversary.Pattern.flood ~n:8 ~victim:2) ~rounds:40_000
      ~drain:0 ()
  in
  check_bool "silent rounds < 1%" true (s.silent_rounds * 100 < s.rounds)

let test_rrw_delivers_everything () =
  let s =
    run ~algorithm:(module Mac_broadcast.Rrw) ~n:6 ~rate:0.8 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:5) ~rounds:30_000
      ~drain:10_000 ()
  in
  check_int "all delivered" 0 s.undelivered;
  check_bool "plain packets only" true (s.control_bits_total = 0);
  check_bool "stable" true (stable s)

let test_of_rrw_delivers_everything () =
  let s =
    run ~algorithm:(module Mac_broadcast.Of_rrw) ~n:6 ~rate:0.8 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:6) ~rounds:30_000
      ~drain:10_000 ()
  in
  check_int "all delivered" 0 s.undelivered;
  check_bool "stable" true (stable s);
  check_bool "clean" true (Mac_sim.Metrics.no_violations s)

let test_of_rrw_beats_rate_one_unlike_rrw_withholding_cost () =
  (* Both handle rate 0.95; this checks the common machinery under stress
     and that delays stay linear-ish in n/(1-rho). *)
  List.iter
    (fun algorithm ->
      let s =
        run ~algorithm ~n:6 ~rate:0.95 ~burst:2.0
          ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:7) ~rounds:40_000
          ~drain:20_000 ()
      in
      check_int "all delivered" 0 s.undelivered;
      check_bool "stable" true (stable s))
    [ (module Mac_broadcast.Rrw : Mac_channel.Algorithm.S);
      (module Mac_broadcast.Of_rrw) ]

let test_broadcast_always_on_energy () =
  let s =
    run ~algorithm:(module Mac_broadcast.Mbtf) ~n:5 ~rate:0.5 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:5 ~seed:8) ~rounds:5_000
      ~drain:0 ()
  in
  check_int "all stations on" 5 s.max_on;
  Alcotest.(check (float 0.01)) "every round" 5.0 s.mean_on

let test_broadcast_direct_single_hop () =
  let s =
    run ~algorithm:(module Mac_broadcast.Rrw) ~n:5 ~rate:0.5 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:5 ~seed:9) ~rounds:5_000
      ~drain:2_000 ()
  in
  check_int "single hop" 1 s.max_hops;
  check_int "no relays" 0 s.relay_rounds

(* ---- Token_ring / ring edge cases ---- *)

let test_ring_single_member_wraps () =
  (* The degenerate one-member ring: the holder never changes, but every
     silent round completes a phase — the signal Ring_broadcast's
     [`On_token] policy uses to re-arm its snapshot at n=1. *)
  let r = Mac_broadcast.Token_ring.create ~members:[| 7 |] in
  check_int "sole holder" 7 (Mac_broadcast.Token_ring.holder r);
  Mac_broadcast.Token_ring.note_silence r;
  check_int "holder unchanged" 7 (Mac_broadcast.Token_ring.holder r);
  check_int "every silence wraps" 1 (Mac_broadcast.Token_ring.phase r);
  Mac_broadcast.Token_ring.note_silence r;
  check_int "and wraps again" 2 (Mac_broadcast.Token_ring.phase r);
  Mac_broadcast.Token_ring.note_heard r;
  check_int "heard freezes the phase" 2 (Mac_broadcast.Token_ring.phase r)

(* Regression for the `On_token re-snapshot staleness: at n=1 the holder
   never changes hands, so before the wraparound fix [need_snapshot] was
   never re-armed after the first (empty) refill and a packet injected
   later stayed ineligible forever. Driven at the algorithm level: the
   engine special-cases n=1 (self-addressed packets are delivered at
   injection), which would mask the bug. *)
let test_rrw_single_station_late_injection () =
  let module A = Mac_broadcast.Rrw in
  let queue = Mac_channel.Pqueue.create ~n:1 in
  let st = A.create ~n:1 ~k:1 ~me:0 in
  for round = 0 to 9 do
    (match A.act st ~round ~queue with
    | Mac_channel.Action.Listen -> ()
    | Mac_channel.Action.Transmit _ ->
      Alcotest.fail "transmitted from an empty queue");
    ignore
      (A.observe st ~round ~queue ~feedback:Mac_channel.Feedback.Silence)
  done;
  Mac_channel.Pqueue.add queue
    (Mac_channel.Packet.make ~id:1 ~src:0 ~dst:0 ~injected_at:10);
  let transmitted = ref false in
  (try
     for round = 10 to 20 do
       match A.act st ~round ~queue with
       | Mac_channel.Action.Transmit m ->
         (match m.Mac_channel.Message.packet with
         | Some p -> check_int "the late packet" 1 p.Mac_channel.Packet.id
         | None -> Alcotest.fail "light message from a plain-packet ring");
         transmitted := true;
         raise Exit
       | Mac_channel.Action.Listen ->
         ignore
           (A.observe st ~round ~queue
              ~feedback:Mac_channel.Feedback.Silence)
     done
   with Exit -> ());
  check_bool "late-injected packet becomes eligible" true !transmitted

let test_rrw_ring_advances_past_crashed_station () =
  (* Station 2 crashes for good mid-run and a short jam burst hits the
     channel; traffic flows only 0 -> 1, so every injected packet must
     still deliver — the ring passes the dead station's turn by silence
     and the jams only delay it. *)
  let faults =
    Mac_faults.Fault_plan.scripted ~name:"crash2+jam"
      ([ (50, Mac_faults.Fault_plan.Crash
              { station = 2; queue = Mac_faults.Fault_plan.Drop }) ]
      @ List.init 5 (fun i ->
            (300 + i, Mac_faults.Fault_plan.Jam)))
  in
  let s =
    run ~faults:(Some faults) ~strict:false
      ~algorithm:(module Mac_broadcast.Rrw) ~n:4 ~rate:0.3 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1)
      ~rounds:6_000 ~drain:3_000 ()
  in
  check_int "one crash" 1 s.faults.crashes;
  check_int "nothing was queued at the dead station" 0 s.faults.lost_to_crash;
  check_int "all delivered around the dead station" 0 s.undelivered;
  check_bool "progress continued" true (s.delivered > 0)

(* ---- Cross-paper broadcast families ---- *)

let test_fs_tree_delivers_everything () =
  let s =
    run ~algorithm:(module Mac_broadcast.Fs_tree) ~n:6 ~rate:0.5 ~burst:3.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:11) ~rounds:30_000
      ~drain:10_000 ()
  in
  check_int "all delivered" 0 s.undelivered;
  check_bool "plain packets only" true (s.control_bits_total = 0);
  check_bool "stable" true (stable s);
  check_bool "clean" true (Mac_sim.Metrics.no_violations s)

let test_fs_tree_splits_resolve_collisions () =
  (* Bursty injection into many queues provokes collisions; the binary
     splits must resolve every one of them (fault-free channel, so no
     singleton-interval collisions exist) and still deliver everything. *)
  let s =
    run ~algorithm:(module Mac_broadcast.Fs_tree) ~n:8 ~rate:0.4 ~burst:8.0
      ~pattern:(Mac_adversary.Pattern.round_robin ~n:8) ~rounds:20_000
      ~drain:10_000 ()
  in
  check_bool "collisions happened" true (s.collision_rounds > 0);
  check_int "and were all resolved" 0 s.undelivered;
  check_bool "clean" true (Mac_sim.Metrics.no_violations s)

let test_ack_rr_collision_free_delivery () =
  let s =
    run ~algorithm:(module Mac_broadcast.Ack_rr) ~n:6 ~rate:0.6 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:6 ~seed:13) ~rounds:30_000
      ~drain:10_000 ()
  in
  check_int "TDMA never collides on a fault-free channel" 0 s.collision_rounds;
  check_int "all delivered" 0 s.undelivered;
  check_bool "stable" true (stable s);
  check_bool "clean" true (Mac_sim.Metrics.no_violations s)

let test_ack_rr_single_queue_slowdown () =
  (* The factor-n price of TDMA: a single flooded queue is served once
     every n rounds, so rate 1/2 into one station is hopeless for n=6 —
     the backlog must grow without bound. *)
  let s =
    run ~algorithm:(module Mac_broadcast.Ack_rr) ~n:6 ~rate:0.5 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:3 ~dst:4)
      ~rounds:30_000 ~drain:0 ()
  in
  check_bool "unstable above 1/n per queue" true (not (stable s))

let test_backoff_delivers_and_is_deterministic () =
  let go () =
    run
      ~algorithm:(Mac_broadcast.Backoff.algorithm ~seed:3 ())
      ~n:5 ~rate:0.2 ~burst:2.0
      ~pattern:(Mac_adversary.Pattern.uniform ~n:5 ~seed:12) ~rounds:20_000
      ~drain:20_000 ()
  in
  let s = go () in
  check_int "all delivered" 0 s.undelivered;
  check_bool "clean" true (Mac_sim.Metrics.no_violations s);
  check_bool "bit-identical rerun" true (s = go ())

let test_family_entry_points_run () =
  (* The former Unimplemented stubs: both entry points must now return
     working algorithms (the acceptance gate for ROADMAP item 4). *)
  let module FS = (val Mac_broadcast.Ring_broadcast.full_sensing ()) in
  let module AB = (val Mac_broadcast.Ring_broadcast.ack_based ()) in
  Alcotest.(check string) "full-sensing representative" "fs-tree" FS.name;
  Alcotest.(check string) "ack-based representative" "ack-rr" AB.name;
  List.iter
    (fun algorithm ->
      let s =
        run ~algorithm ~n:4 ~rate:0.25 ~burst:2.0
          ~pattern:(Mac_adversary.Pattern.round_robin ~n:4) ~rounds:4_000
          ~drain:4_000 ()
      in
      check_int "delivers" 0 s.undelivered;
      check_bool "clean" true (Mac_sim.Metrics.no_violations s))
    [ Mac_broadcast.Ring_broadcast.full_sensing ();
      Mac_broadcast.Ring_broadcast.ack_based () ]

(* ---- State codec round-trips (checkpoint fidelity) ---- *)

(* Drive an algorithm through a pseudo-random feedback script, snapshot
   it through its codec, and require (a) encode/decode/encode is a fixed
   point and (b) the decoded replica behaves bit-identically on a further
   script — the property resume correctness rests on. *)
let codec_roundtrip ~algorithm ~seed =
  let module A = (val (algorithm : Mac_channel.Algorithm.t)) in
  let n = 4 in
  let rng = Mac_channel.Rng.create ~seed in
  let queue = Mac_channel.Pqueue.create ~n in
  let next_id = ref 0 in
  let fresh_packet () =
    incr next_id;
    Mac_channel.Packet.make ~id:!next_id
      ~src:(Mac_channel.Rng.int rng n)
      ~dst:(Mac_channel.Rng.int rng n)
      ~injected_at:0
  in
  for _ = 1 to 3 do
    Mac_channel.Pqueue.add queue (fresh_packet ())
  done;
  let feedback () =
    match Mac_channel.Rng.int rng 4 with
    | 0 -> Mac_channel.Feedback.Silence
    | 1 -> Mac_channel.Feedback.Collision
    | 2 ->
      Mac_channel.Feedback.Heard
        (Mac_channel.Message.packet_only (fresh_packet ()))
    | _ ->
      Mac_channel.Feedback.Heard
        (Mac_channel.Message.make ~packet:(fresh_packet ())
           [ Mac_channel.Message.Flag true ])
  in
  let st = A.create ~n ~k:n ~me:1 in
  for round = 0 to 39 do
    ignore (A.act st ~round ~queue);
    ignore (A.observe st ~round ~queue ~feedback:(feedback ()))
  done;
  let enc = A.encode_state st in
  let st' = A.decode_state enc in
  let fixed_point = String.equal (A.encode_state st') enc in
  let agrees = ref true in
  for round = 40 to 59 do
    let fb = feedback () in
    let a = A.act st ~round ~queue in
    let a' = A.act st' ~round ~queue in
    if a <> a' then agrees := false;
    let r = A.observe st ~round ~queue ~feedback:fb in
    let r' = A.observe st' ~round ~queue ~feedback:fb in
    if r <> r' then agrees := false
  done;
  fixed_point && !agrees

let qcheck_new_codecs_roundtrip =
  QCheck.Test.make ~name:"broadcast state codecs round-trip mid-run"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun algorithm -> codec_roundtrip ~algorithm ~seed)
        [ (module Mac_broadcast.Rrw : Mac_channel.Algorithm.S);
          (module Mac_broadcast.Of_rrw);
          (module Mac_broadcast.Mbtf);
          (module Mac_broadcast.Fs_tree);
          (module Mac_broadcast.Ack_rr);
          Mac_broadcast.Backoff.algorithm ~seed:5 () ])

(* The closed forms a skip uses equal the steps they replace: [c]
   silences at once leave a ring (index and phase) and an MBTF list where
   [c] single silences do, and the turn counts agree with stepping until
   the member holds the token (and, for a ring, until the phase ends). *)
let silences_skip_property =
  QCheck.Test.make ~name:"note_silences = repeated note_silence" ~count:200
    QCheck.(triple (int_range 1 6) (int_range 0 20) (int_range 0 30))
    (fun (size, before, c) ->
      let module R = Mac_broadcast.Token_ring in
      let module L = Mac_broadcast.Mbtf_list in
      let members = Array.init size (fun i -> 10 + i) in
      (* a ring and a list after [before] and then [steps] single silences *)
      let ring steps =
        let r = R.create ~members in
        for _ = 1 to before + steps do R.note_silence r done;
        r
      in
      let list steps =
        let l = L.create ~members in
        for _ = 1 to before + steps do L.note_silence l done;
        l
      in
      let r = ring 0 and l = list 0 in
      R.note_silences r c;
      L.note_silences l c;
      let w = R.silences_until_wrap (ring 0) and phase = R.phase (ring 0) in
      R.holder r = R.holder (ring c)
      && R.phase r = R.phase (ring c)
      && L.holder l = L.holder (list c)
      && L.order l = L.order (list c)
      && R.phase (ring (w - 1)) = phase
      && R.phase (ring w) = phase + 1
      && Array.for_all
           (fun m ->
             R.holder (ring (R.silences_until_holder (ring 0) m)) = m
             && L.holder (list (L.silences_until_holder (list 0) m)) = m)
           members)

let () =
  Alcotest.run "broadcast"
    [ ("token-ring",
       [ Alcotest.test_case "advance on silence" `Quick test_ring_advances_on_silence;
         Alcotest.test_case "phase wrap" `Quick test_ring_phase_wraps;
         Alcotest.test_case "single-member wrap" `Quick test_ring_single_member_wraps;
         Alcotest.test_case "empty rejected" `Quick test_ring_empty_rejected;
         QCheck_alcotest.to_alcotest silences_skip_property ]);
      ("mbtf-list",
       [ Alcotest.test_case "move to front" `Quick test_mbtf_list_move_to_front;
         Alcotest.test_case "front big noop" `Quick test_mbtf_list_front_big_is_noop_move ]);
      ("mbtf",
       [ Alcotest.test_case "stable at rate 1" `Slow test_mbtf_stable_at_rate_one;
         Alcotest.test_case "few silent rounds" `Slow test_mbtf_few_silent_rounds_under_load ]);
      ("rrw",
       [ Alcotest.test_case "delivers everything" `Slow test_rrw_delivers_everything;
         Alcotest.test_case "high rate" `Slow test_of_rrw_beats_rate_one_unlike_rrw_withholding_cost ]);
      ("of-rrw",
       [ Alcotest.test_case "delivers everything" `Slow test_of_rrw_delivers_everything ]);
      ("model",
       [ Alcotest.test_case "always-on energy" `Quick test_broadcast_always_on_energy;
         Alcotest.test_case "direct single hop" `Quick test_broadcast_direct_single_hop ]);
      ("regressions",
       [ Alcotest.test_case "n=1 late injection still eligible" `Quick
           test_rrw_single_station_late_injection;
         Alcotest.test_case "ring advances past crashed station" `Slow
           test_rrw_ring_advances_past_crashed_station ]);
      ("fs-tree",
       [ Alcotest.test_case "delivers everything" `Slow test_fs_tree_delivers_everything;
         Alcotest.test_case "splits resolve collisions" `Slow
           test_fs_tree_splits_resolve_collisions ]);
      ("ack-rr",
       [ Alcotest.test_case "collision-free delivery" `Slow
           test_ack_rr_collision_free_delivery;
         Alcotest.test_case "single-queue slowdown" `Slow
           test_ack_rr_single_queue_slowdown ]);
      ("backoff",
       [ Alcotest.test_case "delivers deterministically" `Slow
           test_backoff_delivers_and_is_deterministic ]);
      ("families",
       [ Alcotest.test_case "entry points run" `Slow test_family_entry_points_run;
         QCheck_alcotest.to_alcotest qcheck_new_codecs_roundtrip ]) ]
