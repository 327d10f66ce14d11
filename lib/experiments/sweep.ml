open Mac_channel

let stability_probe_q ~algorithm ~n ~k ~pattern ?(burst = Qrat.of_int 4) ~rounds
    () ~rho =
  let adversary =
    Mac_adversary.Adversary.create_q ~rate:rho ~burst (pattern ())
  in
  let summary = Mac_sim.Engine.run ~algorithm ~n ~k ~adversary ~rounds () in
  (Mac_sim.Stability.classify summary.queue_series).verdict
  = Mac_sim.Stability.Stable

let half = Qrat.make 1 2

let bisect_q ?(steps = 8) ~lo ~hi probe =
  if not (probe ~rho:lo) then
    invalid_arg "Sweep.bisect: not stable at the lower rate";
  if probe ~rho:hi then
    invalid_arg "Sweep.bisect: not unstable at the upper rate";
  let lo = ref lo and hi = ref hi in
  for _ = 1 to steps do
    (* Exact midpoint: the bracket endpoints stay rationals, so the located
       frontier is a property of the rate, not of IEEE-754 rounding. *)
    let mid = Qrat.mul (Qrat.add !lo !hi) half in
    if probe ~rho:mid then lo := mid else hi := mid
  done;
  (!lo, !hi)

(* Each bisection is a sequential chain of runs, but independent brackets
   (one per algorithm under the same adversary, say) bisect side by side
   on the supervisor, each resolving to its own outcome. The watchdog
   heartbeat ticks after every probe run, so a bracket counts as live as
   long as individual simulations keep finishing. *)
let bisect_many ?(jobs = 1) ?(policy = Mac_sim.Supervisor.default_policy)
    ?on_event ?telemetry ?steps brackets =
  let count_probe probe =
    match telemetry with
    | None -> probe
    | Some fleet ->
      fun ~rho ->
        Mac_sim.Telemetry.Fleet.add_counter fleet
          ~help:"Throwaway bisection probe runs executed"
          Mac_sim.Telemetry.Names.bisect_probes;
        probe ~rho
  in
  let labels = Array.of_list (List.map (fun (l, _, _, _) -> l) brackets) in
  let outcomes =
    Mac_sim.Supervisor.map ~policy ?on_event
      ~label:(fun i -> labels.(i))
      ~jobs brackets
      (fun ~heartbeat ~attempt:_ (_, lo, hi, probe) ->
        let probe = count_probe probe in
        bisect_q ?steps ~lo ~hi (fun ~rho ->
            let verdict = probe ~rho in
            heartbeat ();
            verdict))
  in
  List.map2 (fun l o -> (l, o)) (Array.to_list labels) outcomes
