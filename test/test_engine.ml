(* Engine semantics tests. A configurable toy algorithm provokes each
   protocol violation the engine must catch (foreign packets, plain-packet
   breaches, relaying by direct algorithms, stranded packets, adoption
   conflicts, schedule lies, collisions), and lawful runs check conservation
   and delivery bookkeeping. *)

open Mac_channel

(* The toy: all stations on every round; station 0 follows a script. *)
type behaviour =
  | Quiet
  | Send_oldest          (* plain packet to whoever it is addressed *)
  | Send_foreign         (* a packet that is not in the queue *)
  | Send_light           (* control-only message *)
  | Collide              (* stations 0 and 1 transmit together *)

let behaviour = ref Quiet
let adopters : int list ref = ref []   (* stations adopting heard packets *)
let adopt_always : int list ref = ref [] (* stations adopting on any feedback *)
let off_stations : int list ref = ref []
let lie_about_schedule = ref false

module Toy = struct
  type state = { me : int }

  let name = "toy"
  let plain_packet = false
  let direct = false
  let oblivious = true
  let required_cap ~n ~k:_ = n

  let static_schedule =
    Some (fun ~n:_ ~k:_ ~me:_ ~round:_ -> true)

  let create ~n:_ ~k:_ ~me = { me }

  let on_duty s ~round:_ ~queue:_ =
    if !lie_about_schedule && s.me = 0 then false
    else not (List.mem s.me !off_stations)

  let act s ~round:_ ~queue =
    let send_oldest () =
      match Pqueue.oldest queue with
      | Some p -> Action.Transmit (Message.packet_only p)
      | None -> Action.Listen
    in
    match !behaviour with
    | Quiet -> Action.Listen
    | Send_oldest -> if s.me = 0 then send_oldest () else Action.Listen
    | Send_foreign ->
      if s.me = 0 then
        Action.Transmit
          (Message.packet_only (Packet.make ~id:999_999 ~src:0 ~dst:1 ~injected_at:0))
      else Action.Listen
    | Send_light ->
      if s.me = 0 then Action.Transmit (Message.light [ Message.Flag true ])
      else Action.Listen
    | Collide -> if s.me <= 1 then send_oldest () else Action.Listen

  let observe s ~round:_ ~queue:_ ~feedback =
    if List.mem s.me !adopt_always then Reaction.Adopt_heard_packet
    else begin
      match feedback with
      | Feedback.Heard { Message.packet = Some p; _ }
        when List.mem s.me !adopters && p.Packet.dst <> s.me ->
        Reaction.Adopt_heard_packet
      | _ -> Reaction.No_reaction
    end

  let offline_tick _ ~round:_ ~queue:_ = ()

  let sparse = None

  include Algorithm.Marshal_codec (struct
    type nonrec state = state
  end)
end

(* A wrapper changing the declared flags without rewriting the hooks. *)
module Toy_flagged = struct
  include Toy

  let plain_packet = true
  let name = "toy-plain"
end

module Toy_direct = struct
  include Toy

  let direct = true
  let name = "toy-direct"
end

let reset () =
  behaviour := Quiet;
  adopters := [];
  adopt_always := [];
  off_stations := [];
  lie_about_schedule := false

let run ?(algorithm = (module Toy : Algorithm.S)) ?(strict = true)
    ?(check_schedule = false) ?(rate = 0.5) ?(rounds = 100) ?(drain = 0)
    ?pattern () =
  let n = 4 in
  let pattern =
    match pattern with
    | Some p -> p
    | None -> Mac_adversary.Pattern.uniform ~n ~seed:1
  in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.of_float rate)
      ~burst:(Mac_channel.Qrat.of_int 2) pattern
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      strict; check_schedule; drain_limit = drain; sample_every = 1 }
  in
  Mac_sim.Engine.run ~config ~algorithm ~n ~k:n ~adversary ~rounds ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let expect_violation name f =
  reset ();
  match f () with
  | exception Mac_sim.Engine.Protocol_violation _ -> ()
  | _ -> Alcotest.failf "%s: expected Protocol_violation" name

(* ---- lawful runs ---- *)

let test_conservation () =
  reset ();
  behaviour := Send_oldest;
  let s = run ~rounds:2_000 () in
  check_int "injected = delivered + queued" s.injected
    (s.delivered + s.final_total_queue);
  check_bool "clean" true (Mac_sim.Metrics.no_violations s)

let test_delivery_requires_destination_on () =
  (* station 0 transmits; all on -> deliveries happen. Then destination 1
     off and 2 adopts -> relays, not deliveries. *)
  reset ();
  behaviour := Send_oldest;
  let s =
    run ~rounds:500 ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_bool "deliveries happen when dst on" true (s.delivered > 0);
  reset ();
  behaviour := Send_oldest;
  off_stations := [ 1 ];
  adopters := [ 2 ];
  let s =
    run ~rounds:500 ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_int "no deliveries with dst off" 0 s.delivered;
  check_bool "relays recorded" true (s.relay_rounds > 0)

let test_delay_measurement () =
  reset ();
  behaviour := Send_oldest;
  let s =
    run ~rounds:100 ~rate:0.1
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_bool "delays measured" true (s.delivered > 0 && s.max_delay >= 0);
  check_bool "mean <= max" true (s.mean_delay <= float_of_int (max 1 s.max_delay))

let test_silent_and_light_rounds () =
  reset ();
  let s = run ~rounds:50 () in
  check_int "all silent when quiet" 50 s.silent_rounds;
  reset ();
  behaviour := Send_light;
  let s = run ~rounds:50 () in
  check_int "light rounds counted" 50 s.light_rounds;
  check_bool "control bits counted" true (s.control_bits_total = 50)

let test_collisions_counted_and_packets_survive () =
  reset ();
  behaviour := Collide;
  let s =
    run ~rounds:200
      ~pattern:(Mac_adversary.Pattern.round_robin ~n:4) ()
  in
  check_bool "collisions happened" true (s.collision_rounds > 0);
  check_int "nothing delivered" 0 s.delivered;
  check_int "nothing lost" s.injected s.final_total_queue

let test_drain_stops_when_empty () =
  reset ();
  behaviour := Send_oldest;
  let s =
    run ~rounds:100 ~rate:0.1 ~drain:100_000
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_int "queues empty" 0 s.final_total_queue;
  check_bool "drain stopped early" true (s.drain_rounds < 1_000)

let test_energy_accounting_in_summary () =
  reset ();
  off_stations := [ 2; 3 ];
  let s = run ~rounds:100 () in
  check_int "max on" 2 s.max_on;
  check_int "station rounds" 200 s.station_rounds

let test_queue_series_sampling () =
  reset ();
  let s = run ~rounds:64 () in
  check_int "one sample per round at sample_every=1" 64
    (Array.length s.queue_series)

(* ---- violations ---- *)

let test_foreign_packet_rejected () =
  expect_violation "foreign" (fun () ->
      behaviour := Send_foreign;
      run ())

let test_plain_packet_breach () =
  expect_violation "plain breach" (fun () ->
      behaviour := Send_light;
      run ~algorithm:(module Toy_flagged) ())

let test_direct_algorithm_cannot_relay () =
  expect_violation "direct relay" (fun () ->
      behaviour := Send_oldest;
      off_stations := [ 1 ];
      adopters := [ 2 ];
      ignore
        (run ~algorithm:(module Toy_direct)
           ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()))

let test_stranded_packet_strict () =
  expect_violation "stranded" (fun () ->
      behaviour := Send_oldest;
      off_stations := [ 1 ];
      ignore (run ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()))

let test_stranded_packet_tolerant () =
  reset ();
  behaviour := Send_oldest;
  off_stations := [ 1 ];
  let s =
    run ~strict:false ~rounds:50
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_bool "stranded counted" true (s.violations.stranded > 0);
  check_int "packets returned to sender" s.injected s.final_total_queue

let test_adoption_conflict () =
  reset ();
  behaviour := Send_oldest;
  off_stations := [ 1 ];
  adopters := [ 2; 3 ];
  let s =
    run ~strict:false ~rounds:50
      ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()
  in
  check_bool "conflicts counted" true (s.violations.adoption_conflicts > 0);
  check_int "packet kept exactly once" s.injected (s.delivered + s.final_total_queue)

let test_spurious_adoption () =
  reset ();
  adopt_always := [ 2 ];
  let s = run ~strict:false ~rounds:20 () in
  check_bool "spurious counted" true (s.violations.spurious_adoptions > 0)

let test_transmitter_cannot_adopt () =
  expect_violation "self adopt" (fun () ->
      behaviour := Send_oldest;
      off_stations := [ 1 ];
      adopters := [ 0 ];
      ignore (run ~pattern:(Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1) ()))

let test_schedule_cross_check () =
  expect_violation "schedule lie" (fun () ->
      lie_about_schedule := true;
      run ~check_schedule:true ())

let test_schedule_cross_check_passes_honest () =
  reset ();
  let s = run ~check_schedule:true ~rounds:50 () in
  check_bool "honest schedule fine" true (Mac_sim.Metrics.no_violations s)

(* ---- determinism ---- *)

(* The whole simulator must be a pure function of its configuration: two
   runs of any algorithm under any seeded adversary produce identical
   summaries, field for field. *)
let determinism_property =
  let algorithms =
    [| ("orchestra", (module Mac_routing.Orchestra : Algorithm.S), 3);
       ("count-hop", (module Mac_routing.Count_hop), 2);
       ("k-cycle", Mac_routing.K_cycle.algorithm ~n:8 ~k:3, 3);
       ("k-subsets", Mac_routing.K_subsets.algorithm ~n:8 ~k:3 (), 3);
       ("mbtf", (module Mac_broadcast.Mbtf), 8) |]
  in
  QCheck.Test.make ~name:"engine_is_deterministic" ~count:20
    QCheck.(triple (int_range 0 4) (int_range 1 99) small_nat)
    (fun (pick, rate_pct, seed) ->
      let _, algorithm, k = algorithms.(pick) in
      let once () =
        let adversary =
          Mac_adversary.Adversary.create_q
            ~rate:(Mac_channel.Qrat.make rate_pct 100)
            ~burst:(Mac_channel.Qrat.of_int 3)
            (Mac_adversary.Pattern.uniform ~n:8 ~seed)
        in
        Mac_sim.Engine.run ~algorithm ~n:8 ~k ~adversary ~rounds:3_000 ()
      in
      let a = once () and b = once () in
      a.injected = b.injected && a.delivered = b.delivered
      && a.max_delay = b.max_delay
      && a.mean_delay = b.mean_delay
      && a.max_total_queue = b.max_total_queue
      && a.station_rounds = b.station_rounds
      && a.queue_series = b.queue_series)

(* ---- sparse mode ---- *)

(* One run under an explicit engine mode, pair-TDMA unless [algorithm]
   (with its [k]) says otherwise; knobs cover the dimensions the
   skip-ahead logic must bound correctly: pacing shape, drain, fault
   plans, strictness and the telemetry cadence. *)
let run_sparse_case ~mode
    ?(algorithm = (module Mac_routing.Pair_tdma : Algorithm.S)) ?(k = 2)
    ?(n = 6) ?(pacing = Mac_adversary.Adversary.Greedy) ?(drain = 0) ?faults
    ?(strict = false) ?telemetry_every ~rate ~rounds ~seed () =
  let samples = ref [] in
  let telemetry =
    Option.map
      (fun every ->
        let reg = Mac_sim.Telemetry.create () in
        Mac_sim.Telemetry.probe ~every
          ~on_sample:(fun ~round _ -> samples := round :: !samples)
          reg)
      telemetry_every
  in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate ~burst:(Qrat.of_int 2) ~pacing
      (Mac_adversary.Pattern.uniform ~n ~seed)
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      mode; strict; drain_limit = drain; sample_every = 1; faults; telemetry }
  in
  let summary =
    Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary ~rounds ()
  in
  (summary, List.rev !samples)

(* Sparse and dense must agree bit-for-bit (Marshal bytes of the whole
   summary, telemetry sample rounds included) across the knob grid, at
   pair-TDMA's stable operating point at n = 16 over 60,000 rounds, and
   for each family whose hook fast-forwards station state (k-Cycle,
   k-Clique, k-Subsets) under the same knobs. *)
let test_sparse_matches_dense_grid () =
  let knob ?algorithm ?k ?pacing ?(drain = 0) ?fault_seed ?(strict = false)
      ?telemetry_every () mode =
    let faults =
      Option.map
        (fun seed ->
          Mac_faults.Fault_plan.random ~seed ~n:6 ~rounds:2_000
            ~crash_rate:0.002 ~jam_rate:0.001 ~restart_after:80
            ~queue:Mac_faults.Fault_plan.Retain ())
        fault_seed
    in
    run_sparse_case ~mode ?algorithm ?k ?pacing ~drain ?faults ~strict
      ?telemetry_every ~rate:(Qrat.make 1 40) ~rounds:2_000 ~seed:11 ()
  in
  let families =
    [ ("k-cycle", Mac_routing.K_cycle.algorithm ~n:6 ~k:3, 3);
      ("k-clique", Mac_routing.K_clique.algorithm ~n:6 ~k:4, 4);
      ("k-subsets", Mac_routing.K_subsets.algorithm ~n:6 ~k:3 (), 3) ]
  in
  let family_cases =
    List.concat_map
      (fun (name, algorithm, k) ->
        let knob = knob ~algorithm ~k in
        [ (name ^ " greedy", knob ());
          (name ^ " paced",
           knob ~pacing:(Mac_adversary.Adversary.Paced { burst_at = Some 7 })
             ());
          (name ^ " drain", knob ~drain:400 ());
          (name ^ " faults", knob ~fault_seed:77 ());
          (name ^ " telemetry-7", knob ~telemetry_every:7 ()) ])
      families
  in
  let cases =
    [ ("greedy", knob ());
      ("paced",
       knob ~pacing:(Mac_adversary.Adversary.Paced { burst_at = Some 7 }) ());
      ("drain", knob ~drain:400 ());
      ("faults", knob ~fault_seed:77 ());
      ("strict", knob ~strict:true ());
      ("telemetry-7", knob ~telemetry_every:7 ());
      ("telemetry-64", knob ~drain:300 ~telemetry_every:64 ());
      ("n16-60k",
       fun mode ->
         run_sparse_case ~mode ~n:16 ~rate:(Qrat.make 3 100) ~rounds:60_000
           ~seed:5 ()) ]
    @ family_cases
  in
  List.iter
    (fun (id, go) ->
      let ds, dt = go Mac_sim.Engine.Dense in
      let ss, st = go Mac_sim.Engine.Sparse in
      Alcotest.(check bool)
        (id ^ ": summary bytes identical") true
        (Marshal.to_string ds [] = Marshal.to_string ss []);
      Alcotest.(check (list int)) (id ^ ": telemetry sample rounds") dt st)
    cases

(* The telemetry cadence bound: the round before each sample must execute
   concretely (it is phase-timed), so a skip may never jump over a sample
   boundary. every=7 never divides the pair-TDMA cycle (30), forcing
   skips to land mid-stretch. The grid above checks bit-identity; this
   checks the samples actually happened at the cadence. *)
let test_sparse_telemetry_cadence_boundary () =
  let _, samples =
    run_sparse_case ~mode:Mac_sim.Engine.Sparse ~telemetry_every:7
      ~rate:(Qrat.make 1 100) ~rounds:500 ~seed:3 ()
  in
  Alcotest.(check bool) "samples taken" true (List.length samples >= 500 / 7);
  List.iter
    (fun r ->
      if r < 500 && r mod 7 <> 0 then
        Alcotest.failf "sample at round %d not on the every=7 cadence" r)
    samples

let test_sparse_mode_requires_hook () =
  reset ();
  (match
     run ~rounds:10
       ~pattern:(Mac_adversary.Pattern.uniform ~n:4 ~seed:1) ()
   with
  | _ -> ()
  | exception _ -> Alcotest.fail "dense Toy run should succeed");
  let sparse_toy () =
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n:4 ~seed:1)
    in
    let config =
      { (Mac_sim.Engine.default_config ~rounds:10) with
        mode = Mac_sim.Engine.Sparse }
    in
    Mac_sim.Engine.run ~config ~algorithm:(module Toy) ~n:4 ~k:4 ~adversary
      ~rounds:10 ()
  in
  (match sparse_toy () with
  | _ -> Alcotest.fail "Sparse mode with a sparse-less algorithm must raise"
  | exception Invalid_argument _ -> ())

(* A station sends its oldest packet in its own slot ([round mod n = me])
   until one of its packets is heard, and never again; a restart makes it
   ready anew. Silence changes nothing, so the hook needs no
   fast-forward, but its bound reads station state. *)
module Send_once = struct
  type state = { me : int; n : int; mutable ready : bool }

  let name = "send-once"
  let plain_packet = true
  let direct = true
  let oblivious = true
  let required_cap ~n ~k:_ = n
  let static_schedule = Some (fun ~n:_ ~k:_ ~me:_ ~round:_ -> true)
  let create ~n ~k:_ ~me = { me; n; ready = true }
  let on_duty _ ~round:_ ~queue:_ = true

  let act s ~round ~queue =
    match Pqueue.oldest queue with
    | Some p when s.ready && round mod s.n = s.me ->
      Action.Transmit (Message.packet_only p)
    | _ -> Action.Listen

  let observe s ~round ~queue:_ ~feedback =
    (match feedback with
     | Feedback.Heard _ when round mod s.n = s.me -> s.ready <- false
     | _ -> ());
    Reaction.No_reaction

  let offline_tick _ ~round:_ ~queue:_ = ()

  let sparse =
    Some
      (fun ~n ~k:_ ->
        { Algorithm.on_set = (fun ~round:_ -> Array.init n Fun.id);
          on_count_in =
            (fun ~from ~until ~cap ->
              let m = until - from in
              if m <= 0 then (0, 0, 0) else (n * m, n, if n > cap then m else 0));
          next_transmission =
            (fun s ~round ~queue:_ ->
              if s.ready then round + ((((s.me - round) mod n) + n) mod n)
              else max_int);
          ticks_offline = false;
          fast_forward = None })

  include Algorithm.Marshal_codec (struct
    type nonrec state = state
  end)
end

(* Station 0 sends once at round 0 and then holds its other packets for
   ever, so the cached bound reads "never". A restart at round 61 makes it
   ready for its slot at 63: the restart must drop that bound, or the
   sparse run skips past the slot and delivers less than the dense one. *)
let test_sparse_restart_invalidates_bound () =
  let run mode =
    let config =
      { (Mac_sim.Engine.default_config ~rounds:300) with
        mode;
        faults =
          Some
            (Mac_faults.Fault_plan.scripted ~name:"crash-restart"
               [ (50, Mac_faults.Fault_plan.Crash
                        { station = 0; queue = Mac_faults.Fault_plan.Retain });
                 (61, Mac_faults.Fault_plan.Restart { station = 0 }) ]) }
    in
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Qrat.make 1 1000)
        ~burst:(Qrat.of_int 3)
        (Mac_adversary.Pattern.pair_flood ~src:0 ~dst:1)
    in
    Mac_sim.Engine.run ~config ~algorithm:(module Send_once) ~n:3 ~k:3
      ~adversary ~rounds:300 ()
  in
  let dense = run Mac_sim.Engine.Dense and sparse = run Mac_sim.Engine.Sparse in
  Alcotest.(check int) "two sends, one per readiness" 2 dense.delivered;
  Alcotest.(check bool) "summary bytes identical" true
    (Marshal.to_string dense [] = Marshal.to_string sparse [])

(* Auto mode resolves per algorithm: dense for Toy (still runs), sparse
   for pair-TDMA (bit-identical to Dense). *)
let test_sparse_auto_resolution () =
  reset ();
  let toy_auto =
    let adversary =
      Mac_adversary.Adversary.create_q ~rate:(Mac_channel.Qrat.make 1 2)
        ~burst:(Mac_channel.Qrat.of_int 2)
        (Mac_adversary.Pattern.uniform ~n:4 ~seed:1)
    in
    let config =
      { (Mac_sim.Engine.default_config ~rounds:50) with
        mode = Mac_sim.Engine.Auto; sample_every = 1 }
    in
    Mac_sim.Engine.run ~config ~algorithm:(module Toy) ~n:4 ~k:4 ~adversary
      ~rounds:50 ()
  in
  reset ();
  let toy_dense = run ~rounds:50 () in
  Alcotest.(check bool) "Auto = Dense for Toy" true
    (Marshal.to_string toy_auto [] = Marshal.to_string toy_dense []);
  let auto, _ =
    run_sparse_case ~mode:Mac_sim.Engine.Auto ~rate:(Qrat.make 1 30)
      ~rounds:1_000 ~seed:5 ()
  in
  let dense, _ =
    run_sparse_case ~mode:Mac_sim.Engine.Dense ~rate:(Qrat.make 1 30)
      ~rounds:1_000 ~seed:5 ()
  in
  Alcotest.(check bool) "Auto = Dense for pair-TDMA" true
    (Marshal.to_string auto [] = Marshal.to_string dense [])

(* A self-addressed packet is delivered the instant it is admitted: it
   must count as injected and delivered with zero delay, but never touch
   the queue gauges — live (note_self_injection) and through a stream
   replay (observe of Injected with src = dst). The pre-fix accounting
   bumped total_queued on admission and only drained it on delivery,
   skewing max_total_queue upward. *)
let test_self_injection_queue_gauges () =
  let finalize m = Mac_sim.Metrics.finalize m ~final_round:1 ~max_queued_age:0 in
  let live =
    Mac_sim.Metrics.create ~algorithm:"a" ~adversary:"b" ~n:3 ~k:2 ~cap:2
      ~sample_every:1
  in
  Mac_sim.Metrics.note_self_injection live;
  Mac_sim.Metrics.end_round live ~round:0 ~draining:false;
  let s = finalize live in
  Alcotest.(check int) "injected" 1 s.injected;
  Alcotest.(check int) "delivered" 1 s.delivered;
  Alcotest.(check int) "max_total_queue untouched" 0 s.max_total_queue;
  Alcotest.(check int) "final_total_queue untouched" 0 s.final_total_queue;
  Alcotest.(check int) "max delay 0" 0 s.max_delay;
  Alcotest.(check int) "max hops 0" 0 s.max_hops;
  let replayed =
    Mac_sim.Metrics.create ~algorithm:"a" ~adversary:"b" ~n:3 ~k:2 ~cap:2
      ~sample_every:1
  in
  Mac_sim.Metrics.observe replayed ~round:0
    (Event.Injected { id = 0; src = 1; dst = 1 });
  Mac_sim.Metrics.observe replayed ~round:0
    (Event.Delivered { id = 0; from_ = 1; dst = 1; delay = 0; hops = 0 });
  Mac_sim.Metrics.end_round replayed ~round:0 ~draining:false;
  let r = finalize replayed in
  Alcotest.(check bool) "replay agrees with the live path" true (r = s)

(* Allocation ceilings for the dense round loop. Minor words per round are
   exact for a given build, so growth that used to pass unnoticed (a queue
   or bucket that allocates per packet, a closure per membership test)
   fails here. Each point is a paper-horizon operating point run densely
   at seed 1, the configuration `routing_sim run SPEC --seed 1
   --engine dense` uses; the ceilings sit about 10% above the counts the
   current code reaches. *)
let allocation_points =
  let module P = Mac_adversary.Pattern in
  [ ("orchestra", (module Mac_routing.Orchestra : Algorithm.S), 8, 3,
     Qrat.one, P.flood ~n:8 ~victim:2, 83.0);
    ("count-hop", (module Mac_routing.Count_hop), 8, 2, Qrat.make 4 5,
     P.uniform ~n:8 ~seed:1, 65.0);
    ("adjust-window", (module Mac_routing.Adjust_window), 4, 2, Qrat.make 1 2,
     P.uniform ~n:4 ~seed:1, 32.0);
    ("k-cycle", Mac_routing.K_cycle.algorithm ~n:12 ~k:4, 12, 4,
     Qrat.make 13 100, P.uniform ~n:12 ~seed:1, 28.5);
    ("k-clique", Mac_routing.K_clique.algorithm ~n:12 ~k:4, 12, 4,
     Qrat.make 3 100, P.uniform ~n:12 ~seed:1, 32.0);
    ("k-subsets", Mac_routing.K_subsets.algorithm ~n:8 ~k:3 (), 8, 3,
     Qrat.make 1 10, P.pair_flood ~src:1 ~dst:2, 31.0) ]

(* Minor words one run allocates at burst 2, densely unless [mode] says
   otherwise, with [sink] attached when given. *)
let minor_words ?(mode = Mac_sim.Engine.Dense) ?sink ~algorithm ~n ~k ~rate
    pattern ~rounds =
  let module A = (val algorithm : Algorithm.S) in
  let adversary =
    Mac_adversary.Adversary.create_q ~rate ~burst:(Qrat.of_int 2) pattern
  in
  let config =
    { (Mac_sim.Engine.default_config ~rounds) with
      mode; check_schedule = A.oblivious; sink }
  in
  let w0 = Gc.minor_words () in
  ignore (Mac_sim.Engine.run ~config ~algorithm ~n ~k ~adversary ~rounds ());
  Gc.minor_words () -. w0

(* The same ceilings for the sparse engine at the paper-horizon points of
   the families whose hooks fast-forward station state: most of their
   rounds are skipped, so a skip, a fast-forward or a bound query that
   allocates per station shows here first. *)
let sparse_allocation_points =
  let module P = Mac_adversary.Pattern in
  [ ("k-cycle", Mac_routing.K_cycle.algorithm ~n:12 ~k:4, 12, 4,
     Qrat.make 13 100, P.uniform ~n:12 ~seed:1, 24.3);
    ("k-clique", Mac_routing.K_clique.algorithm ~n:12 ~k:4, 12, 4,
     Qrat.make 3 100, P.uniform ~n:12 ~seed:1, 9.7);
    ("k-subsets", Mac_routing.K_subsets.algorithm ~n:8 ~k:3 (), 8, 3,
     Qrat.make 1 10, P.pair_flood ~src:1 ~dst:2, 16.7) ]

let test_allocation_ceilings ?(mode = Mac_sim.Engine.Dense) points () =
  let rounds = 20_000 in
  let over =
    List.filter_map
      (fun (label, algorithm, n, k, rate, pattern, ceiling) ->
        let per_round =
          minor_words ~mode ~algorithm ~n ~k ~rate pattern ~rounds
          /. float_of_int rounds
        in
        Printf.printf "%s: %.2f minor words per round (ceiling %.1f)\n" label
          per_round ceiling;
        if per_round > ceiling then
          Some
            (Printf.sprintf "%s allocates %.1f, above %.1f" label per_round
               ceiling)
        else None)
      points
  in
  if over <> [] then
    Alcotest.failf "minor words per round: %s" (String.concat "; " over)

(* Minor words per recorded event: serve-replay's channel (count-hop
   n = 16, k = 2, rate 1/2, burst 2, uniform, seed 1), run densely with
   [Sink.jsonl] on /dev/null and without a sink, the difference divided by
   the events written. The encoder writes into the sink's one reused
   buffer, so what remains is the event values the engine builds; the
   ceiling sits about 10% above the count the current code reaches. *)
let test_words_per_event_ceiling () =
  let rounds = 20_000 and ceiling = 3.6 in
  let run sink =
    minor_words ?sink ~algorithm:(module Mac_routing.Count_hop) ~n:16 ~k:2
      ~rate:(Qrat.make 1 2) (Mac_adversary.Pattern.uniform ~n:16 ~seed:1)
      ~rounds
  in
  let plain = run None in
  let oc = open_out_bin "/dev/null" in
  let jsonl = Mac_sim.Sink.jsonl oc in
  let events = ref 0 in
  let observed =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        run
          (Some
             (Mac_sim.Sink.make (fun ~round ev ->
                  incr events;
                  jsonl.emit ~round ev))))
  in
  let per_event = (observed -. plain) /. float_of_int !events in
  Printf.printf
    "count-hop n16 to JSONL: %.2f minor words per event over %d events \
     (ceiling %.1f)\n"
    per_event !events ceiling;
  if per_event > ceiling then
    Alcotest.failf "a recorded event allocates %.2f minor words, above %.1f"
      per_event ceiling

let () =
  Alcotest.run "engine"
    [ ("lawful",
       [ Alcotest.test_case "conservation" `Quick test_conservation;
         Alcotest.test_case "delivery needs dst on" `Quick
           test_delivery_requires_destination_on;
         Alcotest.test_case "delay measurement" `Quick test_delay_measurement;
         Alcotest.test_case "silent/light rounds" `Quick test_silent_and_light_rounds;
         Alcotest.test_case "collisions" `Quick
           test_collisions_counted_and_packets_survive;
         Alcotest.test_case "drain" `Quick test_drain_stops_when_empty;
         Alcotest.test_case "energy summary" `Quick test_energy_accounting_in_summary;
         Alcotest.test_case "series sampling" `Quick test_queue_series_sampling;
         Alcotest.test_case "self-injection gauges" `Quick
           test_self_injection_queue_gauges ]);
      ("violations",
       [ Alcotest.test_case "foreign packet" `Quick test_foreign_packet_rejected;
         Alcotest.test_case "plain breach" `Quick test_plain_packet_breach;
         Alcotest.test_case "direct relay" `Quick test_direct_algorithm_cannot_relay;
         Alcotest.test_case "stranded strict" `Quick test_stranded_packet_strict;
         Alcotest.test_case "stranded tolerant" `Quick test_stranded_packet_tolerant;
         Alcotest.test_case "adoption conflict" `Quick test_adoption_conflict;
         Alcotest.test_case "spurious adoption" `Quick test_spurious_adoption;
         Alcotest.test_case "self adoption" `Quick test_transmitter_cannot_adopt;
         Alcotest.test_case "schedule lie" `Quick test_schedule_cross_check;
         Alcotest.test_case "schedule honest" `Quick
           test_schedule_cross_check_passes_honest ]);
      ("sparse",
       [ Alcotest.test_case "sparse = dense grid" `Slow
           test_sparse_matches_dense_grid;
         Alcotest.test_case "telemetry cadence boundary" `Quick
           test_sparse_telemetry_cadence_boundary;
         Alcotest.test_case "Sparse requires the hook" `Quick
           test_sparse_mode_requires_hook;
         Alcotest.test_case "Auto resolution" `Quick
           test_sparse_auto_resolution;
         Alcotest.test_case "restart invalidates the bound" `Quick
           test_sparse_restart_invalidates_bound ]);
      ("determinism", [ QCheck_alcotest.to_alcotest determinism_property ]);
      ("allocation",
       [ Alcotest.test_case "dense minor words per round" `Quick
           (test_allocation_ceilings allocation_points);
         Alcotest.test_case "sparse minor words per round" `Quick
           (test_allocation_ceilings ~mode:Mac_sim.Engine.Sparse
              sparse_allocation_points);
         Alcotest.test_case "minor words per recorded event" `Quick
           test_words_per_event_ceiling ]) ]
