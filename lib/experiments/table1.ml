open Mac_adversary
open Mac_channel

type cell = {
  spec : Scenario.spec;
  checks : Scenario.checker list;
}

type t = {
  id : string;
  claim : string;
  cells : scale:[ `Quick | `Full ] -> cell list;
}

let row ~id ~claim cells = { id; claim; cells }

(* Every batch run of a row — plain, supervised, resumable — is this one
   sweep: "plain" is [Supervisor.default_policy], "fresh" is no resume
   directory. [?inject] is a fault hook (tests and `--inject-failure`):
   it is called with the cell id at the start of each attempt, and may
   raise. *)
let sweep ?observe ?telemetry ?jobs ?policy ?on_event ?inject ?resume_dir
    ~scale row () =
  let run c ~heartbeat =
    Option.iter (fun f -> f c.spec.id) inject;
    match resume_dir with
    | None ->
      Scenario.Fresh
        (Scenario.run ~checks:c.checks ?observe ?telemetry ~heartbeat c.spec)
    | Some resume_dir ->
      Scenario.run_resumable ~checks:c.checks ?observe ?telemetry ~heartbeat
        ~resume_dir ~experiment:row.id c.spec
  in
  let outcomes =
    Scenario.sweep ?jobs ?policy ?on_event
      ?quarantined:
        (Option.map
           (fun resume_dir -> Scenario.quarantine_lookup ~resume_dir)
           resume_dir)
      ~label:(fun c -> c.spec.id)
      (row.cells ~scale) run
  in
  (* A cell that exhausted its attempts is quarantined on disk: the next
     run of this sweep skips it up front instead of burning the whole
     retry budget again. *)
  Option.iter
    (fun resume_dir ->
      List.iter
        (fun (cid, r) ->
          let note failures error =
            Scenario.note_quarantined ~resume_dir ~id:cid ~failures ~error
          in
          match r with
          | Error (Mac_sim.Supervisor.Failed { attempts; error }) ->
            note attempts (Printexc.to_string error)
          | Error (Mac_sim.Supervisor.Timed_out { attempts; timeout }) ->
            note attempts
              (Printf.sprintf "no heartbeat progress for %gs" timeout)
          | _ -> ())
        outcomes)
    resume_dir;
  outcomes

(* Saboteurs need the oblivious schedule over a horizon covering several
   periods of the duty pattern. *)
let required_schedule algorithm ~n ~k =
  match Scenario.schedule_of algorithm ~n ~k with
  | Some f -> f
  | None -> invalid_arg "saboteur needs an oblivious algorithm"

(* ------------------------------------------------------------------ *)
(* Row 1: Orchestra — stable at rate 1 with energy cap 3, queues
   bounded by 2n^3 + beta. *)

let orchestra_cells ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:10 in
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:300_000 in
  let beta = 20 in
  let checks =
    [ Scenario.queues_under
        (Bounds.orchestra_queue_bound ~n ~beta:(float_of_int beta));
      Scenario.cap_at_most 3;
      Scenario.stable;
      Scenario.clean ]
  in
  let cell id pattern =
    { checks;
      spec =
        Scenario.spec_q ~id ~algorithm:(module Mac_routing.Orchestra) ~n ~k:3
          ~rate:Qrat.one ~burst:(Qrat.of_int beta) ~pattern ~rounds ~drain:0
          () }
  in
  [ cell "orchestra/flood" (fun () -> Pattern.flood ~n ~victim:(n / 2));
    cell "orchestra/uniform" (fun () -> Pattern.uniform ~n ~seed:101);
    cell "orchestra/to-busiest" (fun () -> Pattern.to_busiest ~n);
    cell "orchestra/alternating"
      (fun () -> Pattern.alternating ~src:1 ~dst_odd:2 ~dst_even:3) ]

(* ------------------------------------------------------------------ *)
(* Row 2: Theorem 2 — with energy cap 2 no algorithm sustains rate 1.
   Both cap-2 algorithms grow without bound at rate 1, under the
   adaptive Lemma-1 strategy and under a plain flood. *)

let cap2_impossible_cells ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:10 in
  let rounds = Scenario.scaled ~scale ~quick:80_000 ~full:250_000 in
  let checks = [ Scenario.cap_at_most 2; Scenario.unstable; Scenario.clean ] in
  let cell id algorithm pattern burst =
    { checks;
      spec =
        Scenario.spec_q ~id ~algorithm ~n ~k:2 ~rate:Qrat.one
          ~burst:(Qrat.of_int burst) ~pattern ~rounds ~drain:0 () }
  in
  [ cell "cap2/count-hop-breaker" (module Mac_routing.Count_hop)
      (Saboteur.cap2_breaker ~n).Saboteur.pattern 1;
    cell "cap2/count-hop-flood" (module Mac_routing.Count_hop)
      (fun () -> Pattern.flood ~n ~victim:1) 2;
    cell "cap2/adjust-window-flood" (module Mac_routing.Adjust_window)
      (fun () -> Pattern.flood ~n ~victim:1) 2 ]

(* ------------------------------------------------------------------ *)
(* Row 3: Count-Hop — universal with energy cap 2; latency at most
   2(n^2+beta)/(1-rho) (paper constant; the implementable constant is
   2(n(2n-3)+beta)/(1-rho), see DESIGN.md). *)

let count_hop_cells ~scale =
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:250_000 in
  let n = Scenario.scaled ~scale ~quick:6 ~full:10 in
  let cell ~rho ~beta id pattern =
    { checks =
        [ Scenario.latency_under
            (Bounds.count_hop_latency_impl ~n ~rho:(Qrat.to_float rho)
               ~beta:(float_of_int beta));
          Scenario.cap_at_most 2;
          Scenario.stable;
          Scenario.delivered_all;
          Scenario.clean ];
      spec =
        Scenario.spec_q ~id ~algorithm:(module Mac_routing.Count_hop) ~n ~k:2
          ~rate:rho ~burst:(Qrat.of_int beta) ~pattern ~rounds () }
  in
  [ cell ~rho:(Qrat.make 1 2) ~beta:2 "count-hop/uniform-0.5"
      (fun () -> Pattern.uniform ~n ~seed:111);
    cell ~rho:(Qrat.make 9 10) ~beta:2 "count-hop/uniform-0.9"
      (fun () -> Pattern.uniform ~n ~seed:112);
    cell ~rho:(Qrat.make 9 10) ~beta:10 "count-hop/flood-0.9"
      (fun () -> Pattern.flood ~n ~victim:2);
    cell ~rho:(Qrat.make 4 5) ~beta:2 "count-hop/hotspot-0.8"
      (fun () -> Pattern.hotspot ~n ~seed:113 ~hot:1 ~bias:0.7) ]

(* ------------------------------------------------------------------ *)
(* Row 4: Adjust-Window — plain-packet universal with energy cap 2;
   latency (18n^3 lg^2 n + 2beta)/(1-rho) asymptotically; executable
   bound: twice the first window size absorbing the adversary. *)

let adjust_window_cells ~scale =
  let cell ~n ~rho ~beta ~rounds id pattern =
    let bound =
      Bounds.adjust_window_latency_impl ~n ~rho:(Qrat.to_float rho)
        ~beta:(float_of_int beta)
    in
    { checks =
        [ Scenario.latency_under bound;
          Scenario.cap_at_most 2;
          Scenario.stable;
          Scenario.delivered_all;
          Scenario.clean ];
      spec =
        Scenario.spec_q ~id ~algorithm:(module Mac_routing.Adjust_window) ~n
          ~k:2 ~rate:rho ~burst:(Qrat.of_int beta) ~pattern ~rounds
          ~drain:(int_of_float bound) () }
  in
  match scale with
  | `Quick ->
    [ cell ~n:4 ~rho:(Qrat.make 3 10) ~beta:2 ~rounds:80_000
        "adjust-window/uniform-0.3" (fun () -> Pattern.uniform ~n:4 ~seed:121) ]
  | `Full ->
    [ cell ~n:4 ~rho:(Qrat.make 3 10) ~beta:2 ~rounds:200_000
        "adjust-window/uniform-0.3" (fun () -> Pattern.uniform ~n:4 ~seed:121);
      cell ~n:4 ~rho:(Qrat.make 3 5) ~beta:2 ~rounds:300_000
        "adjust-window/flood-0.6" (fun () -> Pattern.flood ~n:4 ~victim:2);
      cell ~n:6 ~rho:(Qrat.make 1 2) ~beta:2 ~rounds:400_000
        "adjust-window/uniform-0.5"
        (fun () -> Pattern.uniform ~n:6 ~seed:122) ]

(* ------------------------------------------------------------------ *)
(* Row 5: k-Cycle — latency (32+beta)n below rate (k-1)/(n-1), cap k.
   Operating points are exact fractions of the exact threshold: frac
   9/10 of rate 3/11 is 27/110, not a float neighbour of it. *)

let k_cycle_cells ~scale =
  let n = 12 in
  let rounds = Scenario.scaled ~scale ~quick:60_000 ~full:200_000 in
  let cell ~k ~frac ~beta id pattern =
    let rho = Qrat.mul frac (Bounds.k_cycle_rate_q ~n ~k) in
    { checks =
        (* The paper's flat (32+beta)n holds away from the threshold; near it
           the constant degrades (EXPERIMENTS.md) — at half rate it must hold. *)
        (if Qrat.compare frac (Qrat.make 1 2) <= 0 then
           [ Scenario.latency_under
               (Bounds.k_cycle_latency ~n ~beta:(Qrat.to_float beta)) ]
         else [])
        @ [ Scenario.cap_at_most k;
            Scenario.stable;
            Scenario.delivered_all;
            Scenario.clean ];
      spec =
        Scenario.spec_q ~id ~algorithm:(Mac_routing.K_cycle.algorithm ~n ~k) ~n
          ~k ~rate:rho ~burst:beta ~pattern ~rounds () }
  in
  let half = Qrat.make 1 2 and near = Qrat.make 9 10 in
  [ cell ~k:4 ~frac:half ~beta:(Qrat.of_int 2) "k-cycle/k4-half"
      (fun () -> Pattern.uniform ~n ~seed:131);
    cell ~k:4 ~frac:near ~beta:(Qrat.of_int 2) "k-cycle/k4-near"
      (fun () -> Pattern.flood ~n ~victim:5);
    cell ~k:6 ~frac:half ~beta:(Qrat.of_int 2) "k-cycle/k6-half"
      (fun () -> Pattern.uniform ~n ~seed:132);
    cell ~k:6 ~frac:near ~beta:(Qrat.of_int 8) "k-cycle/k6-near"
      (fun () -> Pattern.round_robin ~n) ]

(* ------------------------------------------------------------------ *)
(* Row 6: Theorem 6 — no k-energy-oblivious algorithm is stable above
   k/n: the min-duty station cannot keep up. *)

let oblivious_impossible_cells ~scale =
  let n = 12 in
  let rounds = Scenario.scaled ~scale ~quick:80_000 ~full:200_000 in
  let horizon = Scenario.scaled ~scale ~quick:30_000 ~full:60_000 in
  let checks = [ Scenario.unstable; Scenario.clean ] in
  let cell id algorithm ~k =
    (* 6/5 of the exact upper bound k/n: unambiguously above it. *)
    let rho = Qrat.mul (Qrat.make 6 5) (Bounds.oblivious_rate_upper_q ~n ~k) in
    let schedule = required_schedule algorithm ~n ~k in
    let choice = Saboteur.min_duty ~n ~horizon ~schedule in
    { checks;
      spec =
        Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:(Qrat.of_int 2)
          ~pattern:choice.Saboteur.pattern ~rounds ~drain:0 () }
  in
  [ cell "obl/k-cycle-k4" (Mac_routing.K_cycle.algorithm ~n ~k:4) ~k:4;
    cell "obl/k-clique-k4" (Mac_routing.K_clique.algorithm ~n ~k:4) ~k:4 ]

(* ------------------------------------------------------------------ *)
(* Row 7: k-Clique — direct, latency 8(n^2/k)(1+beta/2k) up to rate
   k^2/(2n(2n-k)). *)

let k_clique_cells ~scale =
  let n = 12 in
  let rounds = Scenario.scaled ~scale ~quick:80_000 ~full:250_000 in
  let cell ~k ~beta id pattern =
    let rho = Bounds.k_clique_latency_rate_q ~n ~k in
    { checks =
        [ Scenario.latency_under
            (Bounds.k_clique_latency ~n ~k ~beta:(float_of_int beta));
          Scenario.cap_at_most k;
          Scenario.stable;
          Scenario.delivered_all;
          Scenario.clean ];
      spec =
        Scenario.spec_q ~id ~algorithm:(Mac_routing.K_clique.algorithm ~n ~k)
          ~n ~k ~rate:rho ~burst:(Qrat.of_int beta) ~pattern ~rounds () }
  in
  [ cell ~k:4 ~beta:2 "k-clique/k4-uniform"
      (fun () -> Pattern.uniform ~n ~seed:141);
    cell ~k:4 ~beta:2 "k-clique/k4-pair"
      (fun () -> Pattern.pair_flood ~src:1 ~dst:2);
    cell ~k:6 ~beta:6 "k-clique/k6-uniform"
      (fun () -> Pattern.uniform ~n ~seed:142) ]

(* ------------------------------------------------------------------ *)
(* Row 8: k-Subsets — stable at exactly k(k-1)/(n(n-1)) with queues
   under 2 C(n,k)(n^2+beta). The operating rate IS the threshold — the
   strongest case for exact admission, since one extra granted packet
   per window tips the row unstable. *)

let k_subsets_cells ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:8 in
  let k = 3 in
  let rounds = Scenario.scaled ~scale ~quick:80_000 ~full:300_000 in
  let rho = Bounds.k_subsets_rate_q ~n ~k in
  let cell ?(discipline = `Mbtf) id pattern ~beta =
    { checks =
        [ Scenario.queues_under
            (Bounds.k_subsets_queue_bound ~n ~k ~beta:(float_of_int beta));
          Scenario.cap_at_most k;
          Scenario.stable;
          Scenario.clean ];
      spec =
        Scenario.spec_q ~id
          ~algorithm:(Mac_routing.K_subsets.algorithm ~discipline ~n ~k ())
          ~n ~k ~rate:rho ~burst:(Qrat.of_int beta) ~pattern ~rounds ~drain:0
          () }
  in
  [ cell "k-subsets/pair" (fun () -> Pattern.pair_flood ~src:1 ~dst:2) ~beta:4;
    cell "k-subsets/uniform" (fun () -> Pattern.uniform ~n ~seed:151) ~beta:4;
    cell ~discipline:`Rrw "k-subsets/rrw-uniform"
      (fun () -> Pattern.uniform ~n ~seed:152) ~beta:4 ]

(* ------------------------------------------------------------------ *)
(* Row 9: Theorem 9 — no oblivious direct algorithm is stable above
   k(k-1)/(n(n-1)): the least co-scheduled pair drowns. *)

let oblivious_direct_impossible_cells ~scale =
  let n = Scenario.scaled ~scale ~quick:6 ~full:8 in
  let k = 3 in
  let rounds = Scenario.scaled ~scale ~quick:100_000 ~full:300_000 in
  let checks = [ Scenario.unstable; Scenario.clean ] in
  let gamma = Mac_routing.Combi.binomial n k in
  let cap = Bounds.k_subsets_rate_q ~n ~k in
  let rho = Qrat.mul (Qrat.make 5 4) cap in
  let cell id algorithm ~horizon =
    let schedule = required_schedule algorithm ~n ~k in
    let choice = Saboteur.min_pair ~n ~horizon ~schedule in
    { checks;
      spec =
        Scenario.spec_q ~id ~algorithm ~n ~k ~rate:rho ~burst:(Qrat.of_int 4)
          ~pattern:choice.Saboteur.pattern ~rounds ~drain:0 () }
  in
  [ cell "obl-dir/k-subsets"
      (Mac_routing.K_subsets.algorithm ~n ~k ())
      ~horizon:(20 * gamma);
    cell "obl-dir/pair-tdma" (module Mac_routing.Pair_tdma)
      ~horizon:(4 * n * (n - 1)) ]

let all =
  [ row ~id:"T1.orchestra"
      ~claim:"Orchestra: rate 1, cap 3, queues <= 2n^3+beta (Thm 1)"
      orchestra_cells;
    row ~id:"T1.cap2-impossible"
      ~claim:"No cap-2 algorithm is stable at rate 1 (Thm 2)"
      cap2_impossible_cells;
    row ~id:"T1.count-hop"
      ~claim:"Count-Hop: cap 2, universal, latency <= 2(n^2+b)/(1-r) (Thm 3)"
      count_hop_cells;
    row ~id:"T1.adjust-window"
      ~claim:"Adjust-Window: plain packets, cap 2, universal (Thm 4)"
      adjust_window_cells;
    row ~id:"T1.k-cycle"
      ~claim:"k-Cycle: latency (32+b)n below rate (k-1)/(n-1) (Thm 5)"
      k_cycle_cells;
    row ~id:"T1.obl-impossible"
      ~claim:"No k-oblivious algorithm is stable above k/n (Thm 6)"
      oblivious_impossible_cells;
    row ~id:"T1.k-clique"
      ~claim:"k-Clique: direct, latency 8(n^2/k)(1+b/2k) (Thm 7)"
      k_clique_cells;
    row ~id:"T1.k-subsets"
      ~claim:"k-Subsets: stable at k(k-1)/(n(n-1)), queues <= 2C(n,k)(n^2+b) (Thm 8)"
      k_subsets_cells;
    row ~id:"T1.obl-dir-impossible"
      ~claim:"No oblivious direct algorithm beats k(k-1)/(n(n-1)) (Thm 9)"
      oblivious_direct_impossible_cells ]

let find id = List.find (fun t -> t.id = id) all

let catalog ~scale =
  List.concat_map (fun t -> List.map (fun c -> c.spec) (t.cells ~scale)) all
