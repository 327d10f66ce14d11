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

type frontier =
  | Bracket of Qrat.t * Qrat.t
  | Stable_to_ceiling of Qrat.t
  | Unstable_at_floor of Qrat.t

let frontier_to_string = function
  | Bracket (lo, hi) ->
    Printf.sprintf "frontier in (%s, %s]" (Qrat.to_string lo)
      (Qrat.to_string hi)
  | Stable_to_ceiling hi -> Printf.sprintf "stable up to %s" (Qrat.to_string hi)
  | Unstable_at_floor lo ->
    Printf.sprintf "unstable already at %s" (Qrat.to_string lo)

(* Each endpoint is probed once; only a (stable, unstable) bracket is
   narrowed. *)
let locate ~steps ~lo ~hi probe =
  if not (probe ~rho:lo) then Unstable_at_floor lo
  else if probe ~rho:hi then Stable_to_ceiling hi
  else begin
    let lo = ref lo and hi = ref hi in
    for _ = 1 to steps do
      (* Exact midpoint: the bracket endpoints stay rationals, so the
         located frontier is a property of the rate, not of IEEE-754
         rounding. *)
      let mid = Qrat.mul (Qrat.add !lo !hi) half in
      if probe ~rho:mid then lo := mid else hi := mid
    done;
    Bracket (!lo, !hi)
  end

let bisect_q ?(steps = 8) ~lo ~hi probe =
  match locate ~steps ~lo ~hi probe with
  | Bracket (lo, hi) -> (lo, hi)
  | Unstable_at_floor _ ->
    invalid_arg "Sweep.bisect: not stable at the lower rate"
  | Stable_to_ceiling _ ->
    invalid_arg "Sweep.bisect: not unstable at the upper rate"

type bracket = {
  label : string;
  lo : Qrat.t;
  hi : Qrat.t;
  steps : int;
  probe : rho:Qrat.t -> bool;
}

(* Each bisection is a sequential chain of runs, but independent brackets
   (one per algorithm under the same adversary, say) bisect side by side
   as jobs of one sweep. The heartbeat ticks after every probe run, so a
   bracket counts as live as long as individual simulations keep
   finishing. *)
let frontier ?telemetry b ~heartbeat =
  locate ~steps:b.steps ~lo:b.lo ~hi:b.hi (fun ~rho ->
      Option.iter
        (fun fleet ->
          Mac_sim.Telemetry.Fleet.add_counter fleet
            ~help:"Throwaway bisection probe runs executed"
            Mac_sim.Telemetry.Names.bisect_probes)
        telemetry;
      let stable = b.probe ~rho in
      heartbeat ();
      stable)
